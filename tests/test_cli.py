import json
import math
import os
from pathlib import Path

import pytest

from ciaftp import cli

REPO = Path(__file__).resolve().parent.parent
KERNELS = REPO / "kernels"


def kpath(name: str) -> str:
    return str(KERNELS / f"{name}.json")


def run_cli(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def data_lines(text: str):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_sample_deterministic(capsys):
    args = ["sample", "--kernel", kpath("memoryless"), "--length", "2",
            "--runs", "3", "--seed", "7", "--no-timing"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    rows = data_lines(out1)
    assert rows[0] == "run_id,sample,tau,iterations,node_touches,wall_ns,error"
    assert len(rows) == 4
    # memoryless: tau = -L exactly
    assert all(r.split(",")[2] == "-2" for r in rows[1:])


def test_sample_header_metadata(capsys):
    rc, out, _ = run_cli(
        ["sample", "--kernel", kpath("order1"), "--seed", "5", "--no-timing"], capsys
    )
    assert rc == 0
    assert "# rng=pcg64" in out
    assert "# seed=5" in out
    assert any(l.startswith("# kernel_sha256=") for l in out.splitlines())


def test_sample_json_format(capsys):
    rc, out, _ = run_cli(
        ["sample", "--kernel", kpath("order1"), "--runs", "4", "--seed", "2",
         "--format", "json", "--no-timing"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["seed"] == 2
    assert len(doc["rows"]) == 4
    assert all(r["tau"] <= -1 for r in doc["rows"])


def test_sample_out_file(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    rc, out, _ = run_cli(
        ["sample", "--kernel", kpath("order1"), "--runs", "2", "--seed", "3",
         "--out", str(out_file), "--no-timing"], capsys
    )
    assert rc == 0 and out == ""
    assert len(data_lines(out_file.read_text())) == 3


def test_sample_renewal_spec_example(capsys):
    # 100 renewal runs, seed 1: all runs terminate with tau <= -1 (in fact -2)
    rc, out, _ = run_cli(
        ["sample", "--kernel", kpath("renewal_sqrt"), "--length", "1",
         "--runs", "100", "--seed", "1", "--no-timing",
         "--max-depth", str(10**12), "--max-nodes", str(10**15)], capsys
    )
    assert rc == 0
    rows = data_lines(out)[1:]
    assert len(rows) == 100
    assert all(int(r.split(",")[2]) <= -1 for r in rows)
    assert all(r.split(",")[-1] == "" for r in rows)


def test_sample_budget_failure_exit(capsys):
    rc, out, err = run_cli(
        ["sample", "--kernel", kpath("desk_vlmc"), "--length", "3",
         "--runs", "2", "--seed", "0", "--max-iter", "1", "--no-timing"], capsys
    )
    assert rc == 1
    assert "IterationLimitExceeded" in out
    assert "ciaftp: error: IterationLimitExceeded" in err


def test_missing_kernel_file(capsys):
    rc, _, err = run_cli(["sample", "--kernel", kpath("missing")], capsys)
    assert rc == 2
    assert "FileNotFound" in err


def test_kernel_path_is_a_directory(capsys):
    # an unreadable kernel path is a usage error with one line, no traceback
    rc, _, err = run_cli(["inspect", "--kernel", str(KERNELS)], capsys)
    assert rc == 2
    assert err.startswith("ciaftp: error: IsADirectory: ")
    assert err.count("\n") == 1


def test_bad_kernel_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alphabet": ["0", "1"], "type": "context_tree",
        "contexts": [
            {"context": "0", "probs": {"0": 0.7, "1": 0.3}},
            {"context": "01", "probs": {"0": 0.4, "1": 0.6}},
        ],
    }))
    rc, _, err = run_cli(["sample", "--kernel", str(bad)], capsys)
    assert rc == 2
    assert "IncompleteDictionary" in err


def test_symbol_name_with_a_comma(tmp_path, capsys):
    # a multi-character name holding "," would make windows ambiguous
    bad = tmp_path / "comma.json"
    bad.write_text(json.dumps({"alphabet": ["a,b", "c"], "type": "memoryless",
                               "contexts": [{"context": "", "probs": {"a,b": 0.5, "c": 0.5}}]}))
    rc, out, err = run_cli(["sample", "--kernel", str(bad), "--length", "3",
                            "--seed", "3", "--no-timing"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("ciaftp: error: KernelSpec: ")
    assert err.count("\n") == 1


def test_window_too_large_to_enumerate(capsys):
    # 2^24 windows pass the enumeration guard: refused before any is built
    rc, _, err = run_cli(["sample", "--kernel", kpath("order1"), "--length", "24",
                          "--seed", "0", "--no-timing"], capsys)
    assert rc == 1
    assert err.startswith("ciaftp: error: EnumerationGuard: ")
    assert err.count("\n") == 1


def test_non_utf8_kernel_spec(tmp_path, capsys):
    # a spec that is not UTF-8 text (here a UTF-16 byte-order mark) is a
    # spec error with one line, no traceback
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    rc, _, err = run_cli(["inspect", "--kernel", str(bad)], capsys)
    assert rc == 2
    assert err.startswith("ciaftp: error: KernelSpec: ")
    assert "not UTF-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("probs", [{"0": math.nan, "1": 0.5}, {"0": None, "1": 0.5},
                                   {"0": "abc", "1": 0.5}, {"0": True, "1": False},
                                   {"0": "0.5", "1": "0.5"}])
def test_bad_probability_in_spec(tmp_path, capsys, probs):
    # a probability that is NaN or not a JSON number is a spec error with
    # one line, not a run or a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": ["0", "1"], "type": "memoryless",
                               "contexts": [{"context": "", "probs": probs}]}))
    rc, out, err = run_cli(["sample", "--kernel", str(bad), "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("ciaftp: error: BadProbability: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"alphabet": ["0", "1"], "type": "memoryless",
     "contexts": [{"context": 0, "probs": {"0": 0.5, "1": 0.5}}]},
    {"alphabet": ["0", "1"], "type": "renewal_sqrt",
     "contexts": [{"context": "0", "probs": {"0": 0.5, "1": 0.5}}]},
    *({"alphabet": alphabet, "type": "memoryless",
       "contexts": [{"context": "", "probs": {str(g): 0.5 for g in alphabet}}]}
      for alphabet in ([0, 1], [True, False], [None, "a"], [[1], 2])),
])
def test_spec_with_a_field_it_cannot_have(tmp_path, capsys, doc):
    # a context that is no string, contexts given to renewal_sqrt, and
    # symbol names that are no strings (each would load as its str())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run_cli(["sample", "--kernel", str(bad), "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("ciaftp: error: KernelSpec: ")
    assert err.count("\n") == 1


def test_inspect_deep_comb_kernel(tmp_path, capsys):
    # the order-30 comb VLMC: contexts 0 1^j for j < 30, plus 1^30.  Its
    # masses resolve only at depth 30, where |G|^k contexts are far too
    # many to list
    order = 30
    contexts = [("0" + "1" * j, 0.1 + 0.8 * j / order) for j in range(order)]
    contexts.append(("1" * order, 0.95))
    spec = tmp_path / "comb.json"
    spec.write_text(json.dumps({"alphabet": ["0", "1"], "type": "context_tree", "contexts": [
        {"context": c, "probs": {"0": p0, "1": 1.0 - p0}} for c, p0 in contexts]}))
    rc, out, err = run_cli(["inspect", "--kernel", str(spec)], capsys)
    assert (rc, err) == (0, "")
    table = out.split("k,A_k_min\n")[1].splitlines()
    assert [row.split(",")[0] for row in table[:-1]] == [str(k) for k in range(order + 1)]
    assert table[order] == f"{order},1.0"


def test_context_needs_u(capsys):
    rc, out, err = run_cli(["inspect", "--kernel", kpath("desk_vlmc"), "--context", "01"],
                           capsys)
    assert rc == 2
    assert out == ""
    assert err == "ciaftp: error: Usage: --context needs --u\n"


def test_trace_and_out_on_one_file(tmp_path, capsys):
    # the rows would be written over the trace
    path = tmp_path / "runs.csv"
    for trace in (path, tmp_path / "." / "runs.csv"):
        rc, out, err = run_cli(["sample", "--kernel", kpath("order1"), "--seed", "1",
                                "--trace", str(trace), "--out", str(path)], capsys)
        assert rc == 2
        assert out == ""
        assert err == "ciaftp: error: Usage: --trace and --out name the same file\n"
        assert not path.exists()


def test_no_output_over_the_kernel_spec(tmp_path, monkeypatch, capsys):
    # every command refuses an output path that names its --kernel file,
    # however spelled, and leaves the spec as it was
    spec = tmp_path / "k.json"
    spec.write_bytes(Path(kpath("order1")).read_bytes())
    before = spec.read_bytes()
    os.link(spec, tmp_path / "hard.json")
    monkeypatch.chdir(tmp_path)
    runs = ["--seed", "1", "--runs", "2"]
    for flags, clash in [
        (["sample", *runs, "--out", "k.json"], "--out"),
        (["sample", *runs, "--trace", "./k.json"], "--trace"),
        (["sample", *runs, "--trace", str(spec), "--out", "t.csv"], "--trace"),
        (["validate", *runs, "--out", "./k.json"], "--out"),
        (["bench", *runs, "--out", str(spec)], "--out"),
        (["inspect", "--out", "k.json"], "--out"),
        (["inspect", "--u", "0.5", "--out", "./k.json"], "--out"),
        (["sample", *runs, "--out", "hard.json"], "--out"),
    ]:
        rc, out, err = run_cli([flags[0], "--kernel", "k.json", *flags[1:]], capsys)
        assert rc == 2, flags
        assert out == ""
        assert err == f"ciaftp: error: Usage: --kernel and {clash} name the same file\n"
        assert spec.read_bytes() == before, flags
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.json", "k.json"]


def test_bad_flags(capsys):
    # counts and budgets below 1, and negative seeds, are usage errors, not
    # tracebacks
    for flags in [
        ["sample", "--seed", "-1"],
        ["validate", "--seed", "-5"],
        ["bench", "--seed", "-1"],
        ["sample", "--runs", "0"],
        ["sample", "--length", "0"],
        ["sample", "--max-depth", "0"],
        ["sample", "--max-iter", "0"],
        ["sample", "--max-nodes", "0"],
        ["sample", "--jobs", "-2"],
        ["validate", "--max-depth", "0"],
        ["bench", "--max-nodes", "0"],
        ["bench", "--jobs", "0"],
        ["inspect", "--u", "0.5", "--max-depth", "0"],
    ]:
        rc, _, err = run_cli([flags[0], "--kernel", kpath("order1"), *flags[1:]], capsys)
        assert rc == 2, flags
        assert "Usage" in err, flags


@pytest.mark.parametrize("flags", [
    ["inspect", "--format", "json"],
    ["inspect", "--runs", "3"],
    ["inspect", "--seed", "1"],
    ["inspect", "--jobs", "2"],
    ["inspect", "--max-iter", "5"],
    ["inspect", "--max-nodes", "5"],
    ["inspect", "--no-timing"],
    ["validate", "--format", "csv"],
])
def test_unused_flags_are_usage_errors(flags, capsys):
    # a command rejects the flags it would ignore
    with pytest.raises(SystemExit) as exc:
        cli.main([flags[0], "--kernel", kpath("order1"), *flags[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CIAFTP_SEED", "4242")
    rc, out, _ = run_cli(
        ["sample", "--kernel", kpath("order1"), "--no-timing"], capsys
    )
    assert rc == 0
    assert "# seed=4242" in out
    for bad in ("not-a-number", "-3"):
        monkeypatch.setenv("CIAFTP_SEED", bad)
        rc, _, err = run_cli(
            ["sample", "--kernel", kpath("order1"), "--no-timing"], capsys
        )
        assert rc == 1 and "CIAFTP_SEED" in err and err.count("\n") == 1


def test_entropy_seed_is_printed(capsys, monkeypatch):
    monkeypatch.delenv("CIAFTP_SEED", raising=False)
    rc, out, err = run_cli(
        ["sample", "--kernel", kpath("order1"), "--no-timing"], capsys
    )
    assert rc == 0
    assert "OS-entropy seed" in err
    printed = int(err.split("OS-entropy seed")[1].split()[0])
    assert f"# seed={printed}" in out


def test_validate_end_to_end(capsys):
    rc, out, _ = run_cli(
        ["validate", "--kernel", kpath("desk_vlmc"), "--length", "3",
         "--runs", "3000", "--seed", "10", "--no-timing"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["passed"] and rep["n_failed"] == 0 and rep["failures_by_code"] == {}
    assert rep["tv"] <= rep["tolerance"]
    assert len(rep["cells"]) == 8


def test_validate_failure_exit(capsys):
    rc, out, _ = run_cli(
        ["validate", "--kernel", kpath("order1"), "--length", "1",
         "--runs", "50", "--seed", "1", "--max-iter", "1", "--no-timing"], capsys
    )
    assert rc == 1
    rep = json.loads(out)["report"]
    assert not rep["passed"]
    assert rep["n_failed"] > 0
    assert rep["failures_by_code"] == {"IterationLimitExceeded": rep["n_failed"]}


def test_bench_both_algorithms(capsys):
    rc, out, _ = run_cli(
        ["bench", "--kernel", kpath("order2"), "--length", "1",
         "--runs", "10", "--seed", "8", "--no-timing"], capsys
    )
    assert rc == 0
    rows = [r.split(",") for r in data_lines(out)[1:]]
    assert len(rows) == 20
    algos = {r[0] for r in rows}
    assert algos == {"ciaftp", "pw_extended"}
    # identical draws -> identical samples and tau across algorithms
    by_seed = {}
    for r in rows:
        by_seed.setdefault(r[1], []).append((r[2], r[3]))
    assert all(len(set(v)) == 1 for v in by_seed.values())


def test_bench_one_symbol_algorithms_agree(tmp_path, capsys):
    # a one-symbol map is constant before any draw, for both algorithms
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"alphabet": ["a"], "type": "memoryless",
                                "contexts": [{"context": "", "probs": {"a": 1}}]}))
    for length in (1, 2, 3):
        rc, out, _ = run_cli(["bench", "--kernel", str(spec), "--length", str(length),
                              "--runs", "3", "--seed", "4", "--no-timing"], capsys)
        assert rc == 0
        rows = [r.split(",") for r in data_lines(out)[1:]]
        assert [r[0] for r in rows] == ["ciaftp"] * 3 + ["pw_extended"] * 3
        assert [r[1:] for r in rows[:3]] == [r[1:] for r in rows[3:]] == [
            [str(seed), "a" * length, "0", "0", "0", "0", ""] for seed in (4, 5, 6)]


def test_bench_renewal_single_algorithm(capsys):
    rc, out, _ = run_cli(
        ["bench", "--kernel", kpath("renewal_sqrt"), "--length", "1",
         "--runs", "5", "--seed", "3", "--no-timing",
         "--max-depth", str(10**12), "--max-nodes", str(10**15)], capsys
    )
    assert rc == 0
    rows = [r.split(",") for r in data_lines(out)[1:]]
    assert {r[0] for r in rows} == {"ciaftp"}


def test_jobs_do_not_change_output(tmp_path, capsys):
    sample = ["sample", "--kernel", kpath("desk_vlmc"), "--length", "2",
              "--runs", "12", "--seed", "21", "--no-timing"]
    trace = tmp_path / "trace.csv"
    validate = ["validate", "--kernel", kpath("order1"), "--length", "1",
                "--runs", "400", "--seed", "21", "--no-timing"]
    for base in (sample, sample + ["--trace", str(trace)], validate):
        rc1, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
        traced1 = trace.read_text() if "--trace" in base else None
        rc2, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
        traced2 = trace.read_text() if "--trace" in base else None
        assert rc1 == rc2 == 0
        assert out1 == out2, base
        assert traced1 == traced2, base


def test_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc, _, _ = run_cli(
        ["sample", "--kernel", kpath("desk_vlmc"), "--length", "2",
         "--runs", "3", "--seed", "6", "--no-timing", "--trace", str(trace)], capsys
    )
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "run_id,t,leaf_count,depth,node_touches"
    assert len(lines) > 3
    assert {l.split(",")[0] for l in lines[1:]} == {"0", "1", "2"}

    # --format applies to the rows and to the trace file
    rc, out, _ = run_cli(
        ["sample", "--kernel", kpath("desk_vlmc"), "--length", "2", "--runs", "3",
         "--seed", "6", "--no-timing", "--trace", str(trace), "--format", "json"], capsys
    )
    assert rc == 0
    assert [r["run_id"] for r in json.loads(out)["rows"]] == [0, 1, 2]
    records = json.loads(trace.read_text())["records"]
    assert len(records) == len(lines) - 1
    assert ",".join(str(records[0][f]) for f in lines[0].split(",")) == lines[1]


def test_inspect_slice_fixture(capsys):
    rc, out, _ = run_cli(
        ["inspect", "--kernel", kpath("renewal_sqrt"), "--u", "0.5"], capsys
    )
    assert rc == 0
    assert "# depth=4 leaves=5" in out
    assert "level,symbol,alpha,beta" in out
    rc, _, err = run_cli(
        ["inspect", "--kernel", kpath("renewal_sqrt"), "--u", "1.5"], capsys
    )
    assert rc == 1


def test_inspect_kernel_views(capsys):
    rc, out, _ = run_cli(
        ["inspect", "--kernel", kpath("desk_vlmc"), "--length", "3"], capsys
    )
    assert rc == 0
    assert "# prefix closure: {0, 01, 11}" in out
    assert "closure size 3 <= |D|*depth = 3*2 = 6" in out
    assert "0,0.4" in out and "1,0.7" in out and "2,1.0" in out

    rc, out, _ = run_cli(["inspect", "--kernel", kpath("memoryless")], capsys)
    assert rc == 0
    assert "0,1.0" in out  # A_0^- = 1 for a memoryless kernel
    assert "bound (window 1): 0.0" in out


def test_inspect_deterministic(capsys):
    args = ["inspect", "--kernel", kpath("order2"), "--u", "0.9"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0 and out1 == out2
    # the last interval of a resolving level ends at exactly 1.0
    assert out1.splitlines()[-1] == "2,1,0.720891,1.0"
