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
    "inject.stdout": "50c5177e6688127d1f9e913bf1c26cf45f0e925569dea125d3b83feb830592a6",
    "mut.snapshot": "bf7ae9eea107840632baaf975a670f80bf3e71d42994a61fa14afabb5eb5821f",
    "mut.changes": "f2a41b6a617ee91a889a5ea0520092a768b17cbba66e8f5ff64177ce795b2c70",
    "mut.ledger": "df8f6800f193301d3636bd9b6dd6e5da464d91de440e8fae70cc030dcda8d699",
    "detect.text": "28e112277e84a5ca202aa34b185727d83294f13dad5c5b372fa8ced850f9e3c5",
    "detect.jsonlike": "c85a5adad82b7ce1277fb4cb2a0aaca9c2ae1d534630d6b274f1b68341386e79",
    "parallel.text": "6cc215c49556acdf3c5a74405e0cf1c8bbe6446ab2f75e25522818fbd9e4866b",
    "parallel.jsonlike": "c6d1232a1aad306bc8771e26140d992c3d7a27d549d594730ce22696e00cd1b9",
    # the same reports written to --out files
    "detect.out.text": "28e112277e84a5ca202aa34b185727d83294f13dad5c5b372fa8ced850f9e3c5",
    "detect.out.jsonlike": "c85a5adad82b7ce1277fb4cb2a0aaca9c2ae1d534630d6b274f1b68341386e79",
    "parallel.out.text": "6cc215c49556acdf3c5a74405e0cf1c8bbe6446ab2f75e25522818fbd9e4866b",
    "parallel.out.jsonlike": "c6d1232a1aad306bc8771e26140d992c3d7a27d549d594730ce22696e00cd1b9",
}


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def outputs(tmp_path, capsys):
    """{file name: sha256} of gen, inject --negative, detect and
    detect-parallel outputs, plus the commands' stdout; each report in
    both formats, on stdout and in an --out file."""
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
    parallel = ["detect-parallel", *graph, "--workers", "3", "--tl", "5", "--tu", "60", "--seed", "3"]
    out["parallel.text"] = _cli(capsys, *parallel)
    out["parallel.jsonlike"] = _cli(capsys, *parallel, "--format", "jsonlike")
    for command, name in ((["detect", *graph], "detect"), (parallel, "parallel")):
        for fmt in ("text", "jsonlike"):
            assert _cli(capsys, *command, "--format", fmt, "--out", str(tmp_path / f"{name}.out.{fmt}")) == ""
    for name in ("gen.snapshot", "gen.changes", "mut.snapshot", "mut.changes", "mut.ledger",
                 "detect.out.text", "detect.out.jsonlike", "parallel.out.text", "parallel.out.jsonlike"):
        out[name] = (tmp_path / name).read_text(encoding="utf-8")
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in out.items()}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    assert outputs(tmp_path, capsys) == GOLDEN
