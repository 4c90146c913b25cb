"""The workload generator: seeded, duplicate-free, loadable, helixkit-free."""

import itertools
import json
import os
import subprocess
import sys

import pytest

import gen

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _first(workload, seed, workdir, count):
    return list(itertools.islice(gen.generate(workload, seed, str(workdir)), count))


def _inputs(workload, seed, workdir):
    """The op list and input files, with the work directory taken out."""
    ops = _first(workload, seed, workdir, 300)
    argvs = [json.dumps(op["argv"]).replace(str(workdir), "") for op in ops]
    files = {p.name: p.read_text() for p in workdir.iterdir()}
    return argvs, files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = _inputs(workload, 3, tmp_path / "a")
    assert a == _inputs(workload, 3, tmp_path / "b")
    assert a != _inputs(workload, 4, tmp_path / "c")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_no_two_ops_identical(workload, tmp_path):
    # identical means the same flags and input file contents, whatever the
    # file names; the ops are kept as drawn, input files included
    keys, ids = [], []
    for op in itertools.islice(gen.generate(workload, 11, str(tmp_path)), 900):
        keys.append(gen.op_key(op))
        ids.append(op["id"])
    assert len(keys) == len(set(keys))
    assert ids == list(range(len(ids)))


def test_op_key_sees_through_file_names(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text("{}")
    b.write_text("{}")
    ops = [{"argv": ["koszul-dual", str(p), "--out", str(p) + ".out"],
            "expect": {"input": str(p), "out": str(p) + ".out"}} for p in (a, b)]
    assert gen.op_key(ops[0]) == gen.op_key(ops[1])


def test_round_zero_runs_each_plain_fixture_once(tmp_path):
    round0 = _first("koszul", 3, tmp_path, len(gen.KOSZUL_STRATA))
    middle = [op for op in round0 if op["argv"][-3:] == ["--dims", "7", "--check-double-dual"]
              and "comm-dims-3" in op["argv"][1]]
    assert len(middle) == 3
    docs = [(tmp_path / os.path.basename(op["argv"][1])).read_text() for op in middle]
    assert len(set(docs)) == 3
    assert json.loads(docs[0])["relations"][0]["rows"] == [
        [str(x) for x in row] for row in gen.commutator_rows(3)]


def test_stream_outlasts_a_much_faster_program(tmp_path):
    # today's program gets through about 250 koszul, 240 tables and 50
    # verify ops in a 36 s run
    for workload, count in (("koszul", 3000), ("tables", 2000), ("verify", 3000)):
        ops = _first(workload, 2, tmp_path / workload, count)
        assert len(ops) == count


def test_a_used_up_parameter_space_raises():
    seen = gen._Seen()
    op = {"argv": ["limits", "--d", "5"], "expect": {}}
    assert seen.first_new(itertools.repeat(op)) is op
    with pytest.raises(RuntimeError, match="op stream exhausted"):
        seen.first_new(itertools.repeat(op))


def test_verify_sample_counts_are_pairwise_distinct(tmp_path):
    ops = _first("verify", 5, tmp_path, 400)
    samples = [op["argv"][op["argv"].index("--seed-samples") + 1] for op in ops]
    assert len(samples) == len(set(samples))


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_presentations_load_in_helixkit(seed, tmp_path):
    from helixkit.quadratic import QuadraticPresentation

    _first("koszul", seed, tmp_path, 60)
    files = sorted(p for p in tmp_path.iterdir() if p.suffix == ".json")
    assert files
    for path in files:
        doc = json.loads(path.read_text())
        for block in doc["relations"]:
            for row in block["rows"]:
                assert all(isinstance(x, str) for x in row)
        pres = QuadraticPresentation.from_json_dict(doc)
        assert pres.period == doc["period"]


def test_generation_imports_no_helixkit(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen\n"
        "import itertools\n"
        "for w in gen.WORKLOADS:\n"
        "    list(itertools.islice(gen.generate(w, 1, sys.argv[2] + '/' + w), 100))\n"
        "print(sorted(m for m in sys.modules if m.startswith('helixkit')))"
    )
    out = subprocess.run([sys.executable, "-c", code, BENCH, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_fixture_rows_match_the_dual_pair():
    # the symmetric rows annihilate the commutators and fill the rest
    m = 4
    comm, sym = gen.commutator_rows(m), gen.symmetric_rows(m)
    assert len(comm) + len(sym) == m * m
    assert all(sum(x * y for x, y in zip(u, v)) == 0 for u in comm for v in sym)
