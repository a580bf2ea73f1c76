"""Smoke tests of the experiment scripts the README lists, at tiny sizes."""

import os
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ciaftp.engine import slice_table
from ciaftp.kernels import load_kernel

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_renewal_depth_tail(tmp_path):
    out = run_script("renewal_depth_tail.py", ["--draws", "2000", "--runs", "20"], tmp_path)
    assert "slice depth over 2000 draws" in out
    assert "-tau over 20 runs: mean" in out


def test_run_outcomes(tmp_path):
    lines = run_script("run_outcomes.py", ["--seeds", "1"], tmp_path).splitlines()
    out = [line for line in lines if not line.startswith("compiled ")]
    # the shipped kernels, then the script's one-symbol and ternary specs
    kernels = sorted(p.stem for p in (SCRIPTS.parent / "kernels").glob("*.json"))
    kernels += ["one_symbol", "ternary_vlmc"]
    # every kernel, at L = 1..3, under four budgets, plain and audited;
    # the renewal kernel also plain at the deep budgets, over 64 seeds,
    # order1 at L=13 plain and audited, and every finite kernel through
    # pw_extended at L = 1..3 under two budgets
    deep = [line for line in out if line.split()[2] == "deep"]
    wide = [line for line in out if line.split()[2] == "wide"]
    pw = [line for line in out if line.split()[3] == "pw_extended"]
    assert len(out) - len(deep) - len(wide) - len(pw) == len(kernels) * 3 * 4 * 2
    assert {line.split()[0] for line in deep} == {"renewal_sqrt"} and len(deep) == 3 * 64
    assert all(" audited=0 " in line and " sample=" in line for line in deep)
    assert [line.split()[:4] for line in wide] == [
        ["order1", "L=13", "wide", f"audited={a}"] for a in (0, 1)]
    assert all(" sample=" in line for line in wide)
    assert [line.split()[:3] for line in pw] == [
        [name, f"L={length}", budget] for name in kernels if name != "renewal_sqrt"
        for length in (1, 2, 3) for budget in ("default", "max_iter=3")]
    assert list(dict.fromkeys(line.split()[0] for line in out)) == kernels
    # a one-symbol map is constant before any draw
    assert all(" sample=a" in line and " tau=0 iterations=0 node_touches=0 " in line
               for line in out if line.startswith("one_symbol "))
    assert any(" error=MaxDepthExceeded " in line for line in out)
    assert all(" tau=" in line and " records=" in line for line in out)
    # the untraced loop reports what the traced one does
    assert all(line.endswith(" plain=same") for line in out)
    # the audited run reports exactly what its plain twin does
    plain = [line for line in out if " audited=0 " in line and line not in deep]
    audited = [line.replace(" audited=1 ", " audited=0 ") for line in out if " audited=1 " in line]
    assert plain == audited
    # and pw_extended samples what run samples at the default budgets
    pw_samples = [line.split()[:2] + line.split()[5:6] for line in pw
                  if " default " in line]
    run_samples = [line.split()[:2] + line.split()[5:6] for line in plain
                   if " default " in line and line.split()[0] != "renewal_sqrt"
                   and line.split()[1] != "L=13"]
    assert pw_samples == run_samples
    # then every finite kernel's lines again, from programs compiled before
    # the first run: they report exactly what the interpreted ones do
    compiled = lines[len(out):]
    assert all(line.startswith("compiled ") for line in compiled)
    assert [line.removeprefix("compiled ") for line in compiled] == [
        line for line in out if line.split()[0] != "renewal_sqrt"]
    # each kernel's lines run at the lengths whose tables the script compiles
    lengths = runpy.run_path(str(SCRIPTS / "run_outcomes.py"))["lengths"]
    for name in {line.split()[1] for line in compiled}:
        assert {line.split()[2] for line in compiled if line.split()[1] == name} == {
            f"L={length}" for length in lengths(name)}


def test_run_outcomes_compiles_every_table_it_runs():
    # the table of each length is compiled, a table that lengths up to the
    # order share included
    script = runpy.run_path(str(SCRIPTS / "run_outcomes.py"))
    for name, cache in [("order1", [1, 2, 3, 13]), ("order2", [1, 2, 3])]:
        k = load_kernel(str(SCRIPTS.parent / "kernels" / f"{name}.json"))
        script["compile_tables"](slice_table, k, script["lengths"](name))
        assert sorted(k.slice_cache) == cache
        assert all(entry.program for table in k.slice_cache.values()
                   for entry in table.entries)


def test_memo_traffic(tmp_path):
    out = run_script("memo_traffic.py", ["--seeds", "3"], tmp_path).splitlines()
    assert out[0].split() == ["kernel", "L", "seeds", "steps", "programs", "memo_share",
                              "maps", "transitions"]
    kernels = sorted(p.stem for p in (SCRIPTS.parent / "kernels").glob("*.json"))
    # every finite kernel at L = 1..3; the renewal kernel has no slice table
    assert [line.split()[:2] for line in out[1:]] == [
        [name, str(length)] for name in kernels if name != "renewal_sqrt"
        for length in (1, 2, 3)]
    for line in out[1:]:
        steps, programs, share, maps, transitions = line.split()[3:]
        assert 0 < int(programs) <= int(steps)
        assert float(share) == pytest.approx(1 - int(programs) / int(steps), abs=1e-4)
        assert 0 < int(maps) and 0 < int(transitions)


def test_cli_outputs(tmp_path):
    run_script("cli_outputs.py", ["out", "--kernels", "desk_vlmc"], tmp_path)
    cases = sorted(str(p.relative_to(tmp_path / "out")) for p in (tmp_path / "out").glob("*/*"))
    assert cases == ["desk_vlmc/L1", "desk_vlmc/L3"]
    case = tmp_path / "out" / "desk_vlmc" / "L3"
    names = {p.stem for p in case.glob("*.exit")}
    assert len(names) == 10
    for name in names:
        assert (case / f"{name}.out").exists() and (case / f"{name}.err").exists()
    assert (case / "sample_csv.exit").read_text() == "0\n"
    assert "# seed=11" in (case / "sample_csv.out").read_text()
    assert (case / "sample_trace.records").read_text().startswith("run_id,t,")
    assert (case / "inspect_u073_context.out").read_text().startswith("# slice for u=0.73")


def test_ab_runs(tmp_path):
    # the repository's own src on both sides: every seed agrees, and the
    # report names both sides and each block's winner
    src = str(SCRIPTS.parent / "src")
    out = run_script("ab_runs.py", ["--a", src, "--b", src, "--kernel", "desk_vlmc",
                                    "--length", "2", "--blocks", "3", "--block-seeds", "4"],
                     tmp_path).splitlines()
    assert out[0] == ("kernel desk_vlmc L=2: 3 blocks of 4 seeds,"
                      " (sample, tau, node_touches) identical on all 12 seeds")
    assert out[1] == out[2].replace("b: ", "a: ", 1)
    assert out[3].startswith("block ratio a/b (above 1: b faster): median ")
    won = out[4].replace(",", "").split()
    assert won[:3] == ["blocks", "won:", "a"] and sum(int(won[i]) for i in (3, 5, 7)) == 3
    assert out[5].startswith("us per run (median block): a ")
    # the same comparison of pw_extended runs, named on the first line
    out = run_script("ab_runs.py", ["--a", src, "--b", src, "--kernel", "desk_vlmc",
                                    "--length", "3", "--blocks", "2", "--block-seeds", "5",
                                    "--algorithm", "pw_extended"], tmp_path).splitlines()
    assert out[0] == ("kernel desk_vlmc L=3 pw_extended: 2 blocks of 5 seeds,"
                      " (sample, tau, node_touches) identical on all 10 seeds")
    assert len(out) == 6 and out[5].startswith("us per run (median block): a ")


def test_ab_runs_cold(tmp_path, monkeypatch):
    # --cold N: each block loads a fresh kernel on each side and seeds and
    # runs the reference seeds 2**62 + 0..N-1 on it, with the same report
    src = str(SCRIPTS.parent / "src")
    out = run_script("ab_runs.py", ["--a", src, "--b", src, "--kernel", "order2",
                                    "--length", "1", "--cold", "4", "--blocks", "3"],
                     tmp_path).splitlines()
    assert out[0] == ("kernel order2 L=1: 3 cold blocks of a fresh kernel and seeds"
                      " 2**62 + 0..3, (sample, tau, node_touches) identical in every block")
    assert out[1] == out[2].replace("b: ", "a: ", 1)
    assert out[3].startswith("block ratio a/b (above 1: b faster): median ")
    won = out[4].replace(",", "").split()
    assert sum(int(won[i]) for i in (3, 5, 7)) == 3
    assert len(out) == 6 and out[5].startswith("us per run (median block): a ")
    # a cold block runs on a kernel of its own, which leaves the side's
    # kernel untouched, and reports what a warm block does
    side = runpy.run_path(str(SCRIPTS / "ab_runs.py"))["Side"](
        "ciaftp_cold", SCRIPTS.parent / "src", SCRIPTS.parent / "kernels" / "order2.json", 1,
        "ciaftp")
    seeds = range(2**62, 2**62 + 4)
    cold = side.block(seeds, cold=True)[1]
    assert not side.kernel.slice_cache
    assert cold == side.block(seeds)[1] and side.kernel.slice_cache
    # a cold block seeds each run's stream inside its timed span, as a fresh
    # run_many does, and a warm block before it: with each stream 20 ms
    # slower to seed, only the cold block's time grows by it
    seed_stream = side.engine.RngStream

    def slow_stream(seed):
        time.sleep(0.02)
        return seed_stream(seed)

    monkeypatch.setattr(side.engine, "RngStream", slow_stream)
    assert side.block(seeds, cold=True)[0] >= 4 * 0.02e9 > side.block(seeds)[0]
    # the same of pw_extended, the shape of perfbench's set-up: a cold
    # block builds the gaps of a kernel of its own
    out = run_script("ab_runs.py", ["--a", src, "--b", src, "--kernel", "desk_vlmc",
                                    "--length", "3", "--algorithm", "pw_extended",
                                    "--cold", "4", "--blocks", "2"], tmp_path).splitlines()
    assert out[0] == ("kernel desk_vlmc L=3 pw_extended: 2 cold blocks of a fresh kernel and"
                      " seeds 2**62 + 0..3, (sample, tau, node_touches) identical in every block")
    assert len(out) == 6 and out[5].startswith("us per run (median block): a ")
    side = runpy.run_path(str(SCRIPTS / "ab_runs.py"))["Side"](
        "ciaftp_cold_pw", SCRIPTS.parent / "src", SCRIPTS.parent / "kernels" / "desk_vlmc.json",
        3, "pw_extended")
    cold = side.block(seeds, cold=True)[1]
    assert side.kernel.pw_gaps is None
    assert cold == side.block(seeds)[1] and side.kernel.pw_gaps is not None


def test_ab_runs_refuses_sides_that_differ(tmp_path):
    # negative control: a copy whose streams are seeded one off, on numpy's
    # path and on the block path alike, samples differently, and the script
    # stops instead of timing it
    other = tmp_path / "other"
    shutil.copytree(SCRIPTS.parent / "src" / "ciaftp", other / "ciaftp")
    engine = other / "ciaftp" / "engine.py"
    text = engine.read_text()
    for seeding in ("return np.random.PCG64(seed)",
                    "np.arange(size, dtype=np.uint64) + np.uint64(seed)"):
        assert text.count(seeding) == 1, seeding
        text = text.replace(seeding, seeding.replace("seed)", "seed + 1)"))
    engine.write_text(text)
    # seed 0 takes numpy's path and 1..19 the block path
    one_off = ("import numpy as np\n"
               "from ciaftp.engine import RngStream\n"
               "assert all(RngStream(s).uniform()\n"
               "           == np.random.Generator(np.random.PCG64(s + 1)).random()\n"
               "           for s in range(20))\n")
    subprocess.run([sys.executable, "-c", one_off], cwd=tmp_path, check=True, timeout=300,
                   env=dict(os.environ, PYTHONPATH=str(other)))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_runs.py"), "--a", str(SCRIPTS.parent / "src"),
         "--b", str(other), "--kernel", "desk_vlmc", "--length", "2", "--blocks", "2",
         "--block-seeds", "4"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0 and "differ" in proc.stderr


def test_code_lines(tmp_path):
    # a docstring, a comment and a blank line are left out: one statement
    # counts one line, and a statement spanning lines counts each of them
    package = tmp_path / "ciaftp"
    package.mkdir()
    (package / "one.py").write_text('"""A docstring,\nover two lines."""\n\n# a comment\nX = 1\n')
    (package / "two.py").write_text("def f():\n    '''Doc.'''\n    return (1,  # one\n            2)\n")
    out = run_script("code_lines.py", ["--src", str(tmp_path)], tmp_path).splitlines()
    assert out == ["one.py 1", "two.py 3", "total 4"]
