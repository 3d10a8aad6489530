"""The output-digest script (tests/output_digest.py) is deterministic:
two runs in one process give the same hashes. No value is pinned, since
BLAS results may differ in their last bits across CPUs."""

from output_digest import main, output_digest


def test_digest_repeats_in_one_process():
    first = output_digest(seed=1)
    assert set(first) == {"train_steps", "train_cell", "eval_checkpoint", "gradcheck",
                          "desk_step", "desk_grads", "desk_eval_chunk", "forward_only", "after_mhsa_cell",
                          "after_mlp_cell", "linear_probe", "cli", "all"}
    assert output_digest(seed=1) == first


def test_script_prints_every_part(capsys):
    assert main(["--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines][-1] == "all" and len(lines) == 13
