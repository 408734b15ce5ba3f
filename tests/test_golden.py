"""Golden outputs: sha256 digests of every CLI file on one small generated
instance, so a refactor that changes any output byte fails here.

The rules are shaped like the benchmark's (self-form X and Y, a constant
rule) plus one general-form rule (`x.A == y.B` in X and in Y).  To record
new digests after an intended output change, print `outputs(tmp_path)`.
"""

import hashlib

from tgfd.cli import main

RULES = """\
tgfd r1
vertex x T0
vertex y T1
edge x l0 y
delta (0, 3)
x: x.a0 == x.a0
y: y.a1 == y.a1

tgfd r2
vertex x T0
vertex y T1
vertex z T2
edge x l0 y
edge y l1 z
delta (1, 2)
x: z.a0 == z.a0
y: x.a1 == x.a1

tgfd r3
vertex x T2
vertex y T3
edge x l2 y
delta (0, 0)
x: x.a0 = "val1"
y: y.a2 = "val3"

tgfd r4
vertex x T0
vertex y T1
edge x l0 y
delta (0, 3)
x: x.a0 == y.a0
y: x.a2 == y.a2
"""

GOLDEN = {
    "gen.stdout": "d3d5525bc1098bf32047a7eb315a477697c7bac6c523a77172ffa299ac2137dc",
    "gen.snapshot": "2977def2f4c833e652eb51333ee6702bc67e8e8b716ccb6bb3a0ba1c28006b80",
    "gen.changes": "f719e652e1da6ee6efa3390aa72539949440a527546c2ef883016af0a8471066",
    "inject.stdout": "a3e3bf6a9d1f6f782293104a40ad92ec1f066c55ebf39b0550e8268c5a80b8e9",
    "mut.snapshot": "bf7ae9eea107840632baaf975a670f80bf3e71d42994a61fa14afabb5eb5821f",
    "mut.changes": "5012247392bdf39bc81e25194a781e78e5727591fe627a58ac5f1de0afcd9692",
    "mut.ledger": "1f471fed863a1d6cdd79a1cff865cb803ba47ef820a1a7c737a757c3ded8bc55",
    "detect.text": "b907bae59d6bbbf502d24faf41d23010efaed6c4ca47446212e3b934ea3afb04",
    "detect.jsonlike": "1d393d2b396f1cc96443558106bb9e0d528614211e625fd3dec4f45d47712130",
    "parallel.text": "3f8bc13d087296d26c7dc1b529892a327f6ee0f916d264420f1353cd58a63e5a",
}


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def outputs(tmp_path, capsys):
    """{file name: sha256} of gen, inject --negative, detect and
    detect-parallel outputs, plus the commands' stdout."""
    rules = tmp_path / "rules.tgfd"
    rules.write_text(RULES, encoding="utf-8")
    out = {}
    out["gen.stdout"] = _cli(
        capsys, "gen", "--vertices", "120", "--edges", "360", "--T", "8", "--chg", "0.1",
        "--seed", "5", "--out-prefix", str(tmp_path / "gen"),
    )
    out["inject.stdout"] = _cli(
        capsys, "inject", "--graph", str(tmp_path / "gen.snapshot"),
        "--changes", str(tmp_path / "gen.changes"), "--tgfds", str(rules),
        "--err", "0.2", "--negative", "--seed", "2", "--out-prefix", str(tmp_path / "mut"),
    )
    graph = ["--graph", str(tmp_path / "mut.snapshot"), "--changes", str(tmp_path / "mut.changes"),
             "--tgfds", str(rules)]
    out["detect.text"] = _cli(capsys, "detect", *graph)
    out["detect.jsonlike"] = _cli(capsys, "detect", *graph, "--format", "jsonlike")
    out["parallel.text"] = _cli(
        capsys, "detect-parallel", *graph, "--workers", "3", "--tl", "5", "--tu", "60",
        "--seed", "3",
    )
    for name in ("gen.snapshot", "gen.changes", "mut.snapshot", "mut.changes", "mut.ledger"):
        out[name] = (tmp_path / name).read_text(encoding="utf-8")
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in out.items()}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    assert outputs(tmp_path, capsys) == GOLDEN
