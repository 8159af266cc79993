"""Verdicts and refusals of ``bench/compare.py`` on synthetic result files."""

import json

import compare

SPEC = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
STAMP = {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2", "blas": "b",
         "kernel_backend": "auto", "threads": {}, "git_sha": None, "seconds": 20}


def write_runs(directory, recall_of, seconds=20):
    directory.mkdir()
    for seed in range(10):
        values = {m["name"]: 100.0 + seed for m in SPEC["end_to_end"]}
        values["oneshot_recall"] = recall_of(seed)
        run = {"workload": "offline-lowdim", "seed": seed, "trace": 0, "smoke": False,
               "started": seed, "stamp": dict(STAMP, seed=seed, seconds=seconds),
               "correct": True, "attempted": 1, "failed": 0, "values": values}
        (directory / f"{seed}.json").write_text(json.dumps(run))


def verdicts(capsys):
    lines = capsys.readouterr().out.splitlines()
    return {line.split()[1]: line.split()[-1] for line in lines[1:] if "pairs" not in line}


def test_a_recall_drop_regresses_though_within_the_relative_bound(tmp_path, capsys):
    write_runs(tmp_path / "p", lambda seed: 0.83 - 0.002 * seed)
    write_runs(tmp_path / "c", lambda seed: 0.82 - 0.002 * seed)
    assert compare.main([str(tmp_path / "p"), str(tmp_path / "c")]) == 1
    v = verdicts(capsys)
    assert v["oneshot_recall"] == "regressed"
    assert v["exact_qps"] == "unchanged"


def test_equal_recall_is_unchanged(tmp_path, capsys):
    write_runs(tmp_path / "p", lambda seed: 0.83 - 0.002 * seed)
    write_runs(tmp_path / "c", lambda seed: 0.83 - 0.002 * seed)
    assert compare.main([str(tmp_path / "p"), str(tmp_path / "c")]) == 0
    assert set(verdicts(capsys).values()) == {"unchanged"}


def test_runs_of_different_lengths_are_refused(tmp_path):
    write_runs(tmp_path / "p", lambda seed: 0.8)
    write_runs(tmp_path / "c", lambda seed: 0.8, seconds=10)
    assert compare.main([str(tmp_path / "p"), str(tmp_path / "c")]) == 2
