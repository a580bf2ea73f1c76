"""Smoke tests of the experiment scripts the README lists, at tiny sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

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
