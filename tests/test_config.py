"""Experiment-config file format: parsing, validation, echo roundtrip."""

import resource
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feadapter.config import (_KEYS, ExperimentConfig, ModelConfig, TrainConfig, config_echo,
                              experiment_from_values, load_experiment_config,
                              parse_config_text)
from feadapter.errors import ConfigError

VALID = """
# desk-scale run
model.frames = 4
model.height = 16
model.width = 16
model.patch = 8
model.hidden = 32
model.depth = 2
model.heads = 4
model.classes = 2
adapter.variant = d2_conv3d
adapter.r = 6
adapter.blocks = all
adapter.position = before_mhsa
train.lr = 1e-3
train.epochs = 2
train.batch = 4
train.seed = 9
train.freeze = adapter
data.clips_per_class = 2
out.dir = runs/x
"""


class TestParsing:
    def test_valid_text(self):
        exp = experiment_from_values(parse_config_text(VALID))
        assert exp.model.hidden == 32
        assert exp.model.adapter.variant == "d2_conv3d"
        assert exp.train.lr == pytest.approx(1e-3)
        assert exp.out_dir == "runs/x"

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="model.hiden"):
            parse_config_text("model.hiden = 32")

    # keys that older versions had: a file or an echo that sets one must
    # not load as a model that ignores it
    @pytest.mark.parametrize("key,value", [
        ("adapter.activation", "relu"), ("adapter.kernel", "3,3,3"), ("train.min_lr", "0.0"),
    ])
    @pytest.mark.parametrize("form", ["text", "echo"])
    def test_removed_key_is_unknown(self, form, key, value):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            if form == "text":
                parse_config_text(f"{VALID}{key} = {value}\n")
            else:
                experiment_from_values(
                    {**config_echo(experiment_from_values(parse_config_text(VALID))), key: value})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.hidden = 32\nmodel.hidden = 64")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="model.depth"):
            parse_config_text("model.depth = twelve")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("model.depth 4")

    def test_comments_and_blanks_ignored(self):
        vals = parse_config_text("\n# note\nmodel.depth = 3  # inline\n\n")
        assert vals == {"model.depth": 3}

    @pytest.mark.parametrize("text,blocks", [
        ("all", None),
        ("1,3", (1, 3)),
        ("1-3", (1, 2, 3)),
        ("1-2,4", (1, 2, 4)),
    ])
    def test_block_forms(self, text, blocks):
        exp = experiment_from_values(parse_config_text(
            f"model.depth = 4\nadapter.variant = vanilla\nadapter.r = 6\n"
            f"adapter.blocks = {text}\ntrain.freeze = adapter"))
        assert exp.model.adapter.blocks == blocks

    def test_auto_bottleneck_width_for_reference_geometry(self):
        exp = experiment_from_values(parse_config_text(
            "model.frames = 16\nmodel.height = 224\nmodel.width = 224\nmodel.patch = 16\n"
            "model.hidden = 768\nmodel.depth = 12\nmodel.heads = 12\nmodel.classes = 7\n"
            "adapter.variant = d2_conv3d\nadapter.r = auto\ntrain.freeze = adapter"))
        assert exp.model.adapter.r == 350

    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="no/such/file.cfg"):
            load_experiment_config("no/such/file.cfg")

    def test_unreadable_file_names_path(self, tmp_path):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"model.depth = \xff\n")
        for path in (tmp_path, binary):
            with pytest.raises(ConfigError, match=str(path)):
                load_experiment_config(str(path))


class TestCrossValidation:
    def test_adapter_freeze_requires_variant(self):
        with pytest.raises(ConfigError, match="adapter"):
            experiment_from_values(parse_config_text("train.freeze = adapter"))

    def test_bottleneck_must_stay_below_hidden(self):
        with pytest.raises(ConfigError, match="hidden"):
            experiment_from_values(parse_config_text(
                "model.hidden = 32\nadapter.variant = vanilla\nadapter.r = 32\n"
                "train.freeze = adapter"))

    def test_blocks_outside_depth_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_values(parse_config_text(
                "model.depth = 2\nadapter.variant = vanilla\nadapter.r = 4\n"
                "adapter.blocks = 3\ntrain.freeze = adapter"))

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_values(parse_config_text("model.height = 20\nmodel.patch = 8"))


class TestEcho:
    def test_echo_roundtrip_reproduces_config(self):
        exp = experiment_from_values(parse_config_text(VALID))
        again = experiment_from_values(config_echo(exp))
        assert again.model == exp.model
        assert again.train == exp.train
        assert again.clips_per_class == exp.clips_per_class

    @pytest.mark.parametrize("key,value", [
        ("model.hidden", "x"), ("model.hidden", [1]), ("model.hidden", None),
        ("model.hidden", 32.0), ("adapter.blocks", 3),
        ("adapter.blocks", [1, 2]), ("train.lr", True), ("out.dir", 7),
    ])
    def test_wrong_typed_echo_value_names_key(self, key, value):
        echo = config_echo(experiment_from_values(parse_config_text(VALID)))
        echo[key] = value
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            experiment_from_values(echo)


ADAPTED = "adapter.variant = vanilla\nadapter.r = 2\n"


class TestRanges:
    @pytest.mark.parametrize("line,message", [
        ("model.patch = 0", "patch must be >= 1"),
        ("model.heads = 0", "heads must be >= 1"),
        ("adapter.blocks = 1,x", "bad value for 'adapter.blocks'"),
        ("model.height = -8", "height must be >= 1"),
        ("model.mlp_ratio = 0", "mlp_ratio must be positive"),
        ("train.lr = nan", "^lr must be positive"),
        ("train.weight_decay = nan", "weight_decay must be >= 0"),
        ("data.noise = -1", "noise must be >= 0"),
        ("data.clips_per_class = 0", "clips_per_class must be >= 1"),
        # the range check, not the bottleneck-width check, catches it
        ("model.hidden = -4", "^hidden must be >= 1"),
    ])
    def test_out_of_range_value_names_field(self, line, message):
        with pytest.raises(ConfigError, match=message):
            experiment_from_values(parse_config_text(ADAPTED + line))

    @pytest.mark.parametrize("build,message", [
        (lambda: ModelConfig(patch=0), "patch must be"),
        (lambda: ModelConfig(hidden=-4), "hidden must be"),
        (lambda: ModelConfig(hidden=10 ** 400), "hidden must be"),
        (lambda: ModelConfig(mlp_ratio=float("inf")), "mlp_ratio must be"),
        (lambda: ModelConfig(mlp_ratio=1e307), "mlp_width must be"),
        (lambda: TrainConfig(lr=float("nan")), "lr must be"),
        (lambda: TrainConfig(seed=-1), "seed must be"),
        (lambda: ExperimentConfig(ModelConfig(), TrainConfig(freeze="full"), noise=-1.0),
         "noise must be"),
        (lambda: ExperimentConfig(ModelConfig(), TrainConfig()), "freeze mode 'adapter'"),
    ], ids=["patch", "hidden", "hidden-past-float", "mlp_ratio", "mlp_width", "lr", "seed",
            "noise", "freeze"])
    def test_direct_construction_is_validated(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()


@pytest.fixture
def memory_cap():
    """Cap this process's address space 1 GiB above its current size
    while the test runs, so that expanding a huge block range fails with
    MemoryError instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm", encoding="ascii") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestBlockRanges:
    """Block ranges are checked against the depth before they are
    expanded, as config text and as experiment values alike."""

    DEPTH4 = {"model.depth": 4, "adapter.variant": "vanilla", "adapter.r": 2,
              "train.freeze": "adapter"}

    def build(self, form, blocks):
        if form == "text":
            text = "".join(f"{k} = {v}\n" for k, v in self.DEPTH4.items())
            return experiment_from_values(parse_config_text(text + f"adapter.blocks = {blocks}"))
        return experiment_from_values({**self.DEPTH4, "adapter.blocks": blocks})

    @pytest.mark.parametrize("form", ["text", "values"])
    @pytest.mark.parametrize("blocks,shown", [
        ("1-1000000000000", "1-1000000000000"), ("0-2", "0-2"), ("2,3-5", "3-5"), ("6", "6"),
    ])
    def test_range_past_depth_raises_before_expanding(self, memory_cap, form, blocks, shown):
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=f"^adapter blocks {shown} outside 1..4$"):
            self.build(form, blocks)
        assert time.perf_counter() - t0 < 1.0

    def test_every_block_of_a_huge_depth_stays_unexpanded(self, memory_cap):
        t0 = time.perf_counter()
        exp = experiment_from_values({**self.DEPTH4, "model.depth": 10 ** 12, "model.hidden": 8,
                                      "model.heads": 2})
        assert time.perf_counter() - t0 < 1.0
        assert exp.model.adapter.resolved_blocks(exp.model.depth) == range(1, 10 ** 12 + 1)

    def test_auto_width_at_a_huge_depth_counts_one_block(self, memory_cap):
        t0 = time.perf_counter()
        exp = experiment_from_values({**self.DEPTH4, "model.depth": 10 ** 12, "model.hidden": 8,
                                      "model.heads": 2, "adapter.r": "auto"})
        assert time.perf_counter() - t0 < 1.0
        assert exp.model.adapter.r == 1  # the adapters alone pass the budget at any width

    @pytest.mark.parametrize("form", ["text", "values"])
    def test_reversed_range_is_an_error(self, form):
        with pytest.raises(ConfigError, match="bad value for 'adapter.blocks'"):
            self.build(form, "1,3-1")

    @pytest.mark.parametrize("form", ["text", "values"])
    def test_ranges_inside_depth_expand_in_order(self, form):
        assert self.build(form, "4,1-2").model.adapter.blocks == (4, 1, 2)


# Values as config text and as JSON echo values: arbitrary strings and
# numbers, plus the tokens that reach the deeper checks.
_TOKENS = st.sampled_from(["all", "auto", "none", "vanilla", "dw_conv3d", "d2_conv3d",
                           "adapter", "full", "linear_probe", "temporal_aggregation",
                           "after_mlp", "relu", "3,3,3", "1,5,3", "1-2", "2,4", "nan", "inf"])
_TEXT = st.one_of(_TOKENS, st.text(max_size=12), st.integers().map(str),
                  st.floats().map(repr))
_JSON = st.one_of(_TOKENS, st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(max_size=12), st.lists(st.integers(-2, 9), max_size=4))
_KEY = st.sampled_from(sorted(_KEYS))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_KEY, _TEXT), max_size=10))
def test_any_config_text_gives_a_config_or_config_error(lines):
    try:
        experiment_from_values(parse_config_text("\n".join(f"{k} = {v}" for k, v in lines)))
    except ConfigError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.dictionaries(_KEY, _JSON, max_size=10))
def test_any_config_echo_gives_a_config_or_config_error(echo):
    try:
        experiment_from_values(echo)
    except ConfigError:
        pass
