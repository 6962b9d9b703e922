import json
import math
import subprocess
import sys

import pytest

import ifmsim.cli as cli


def run_cli(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse handles its own exits
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_efficiency_json_benchmark(capsys):
    rc, out, _ = run_cli(
        ["efficiency", "--r1", "0.98", "--r2", "0.98", "--rho", "0.9999", "--a", "500",
         "--format", "json"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "efficiency"
    assert doc["seed"] is None
    assert 0.98 <= doc["results"]["eta"] <= 1.0
    assert 0.97 <= doc["results"]["tau"] <= 0.99


def test_efficiency_text_output(capsys):
    rc, out, _ = run_cli(["efficiency"], capsys)
    assert rc == 0
    assert out.splitlines()[0].startswith("eta = ")


def test_efficiency_lossless_identity(capsys):
    rc, out, _ = run_cli(
        ["efficiency", "--r1", "0.5", "--r2", "0.5", "--rho", "1", "--a", "100000",
         "--format", "json", "--precision", "12"],
        capsys,
    )
    doc = json.loads(out)
    assert rc == 0
    assert abs(doc["results"]["eta"] - doc["results"]["tau"]) < 1e-6


def test_efficiency_validation_exit_code(capsys):
    rc, _, err = run_cli(["efficiency", "--r1", "1.2"], capsys)
    assert rc == 2
    assert "error" in err


def test_efficiency_answers_narrow_line_corner(capsys):
    """a (1 - c) = 5e-7: the term count is bounded, and the bound is reported."""
    rc, out, _ = run_cli(
        ["efficiency", "--r1", "0.999999999", "--r2", "0.999999999", "--rho", "1",
         "--a", "500", "--format", "json"],
        capsys,
    )
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["eta"] == results["tau"]
    assert 0.0 < results["truncation_bound"] < 1e-13


@pytest.mark.parametrize("flag", ["--x-max", "--tol"])
def test_quadrature_flags_are_gone(capsys, flag):
    assert run_cli(["efficiency", flag, "8"], capsys)[0] == 2


def test_sweep_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    argv = ["sweep", "--r-range", "0.9", "0.99", "--rho-range", "0.999", "1.0",
            "--steps", "3", "--a", "500", "--out", str(out_file)]
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "r1,r2,rho,a,eta,tau,phi,truncation_bound"
    assert len(lines) == 10
    first_bytes = out_file.read_bytes()
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out_file.read_bytes() == first_bytes
    assert b"\r" not in first_bytes


def test_sweep_benchmark_row(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    rc, _, _ = run_cli(
        ["sweep", "--r-range", "0.98", "0.99", "--rho-range", "0.9999", "1.0",
         "--steps", "2", "--out", str(out_file), "--precision", "10"],
        capsys,
    )
    assert rc == 0
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    bench = next(r for r in rows if r[0] == "0.98" and r[2] == "0.9999")
    assert 0.98 <= float(bench[4]) <= 1.0
    assert 0.97 <= float(bench[5]) <= 0.99


def test_sweep_unwritable_path_exit_code(capsys):
    rc, _, err = run_cli(["sweep", "--out", "/no/such/directory/t.csv"], capsys)
    assert rc == 4
    assert "error" in err


def test_schemes_reference_numbers(capsys):
    rc, out, _ = run_cli(
        ["schemes", "--ev", "0.5", "--zeno-alpha-deg", "1", "--two-cavity", "90",
         "--format", "json"],
        capsys,
    )
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["results"]["schemes"]}
    assert abs(rows["mach_zehnder"]["detect_no_hit_prob"] - 0.25) < 1e-9
    assert abs(rows["mach_zehnder"]["long_run_efficiency"] - 1.0 / 3.0) < 1e-6
    assert abs(rows["zeno_rotation"]["hit_prob"] - 0.03) <= 0.005
    assert rows["zeno_rotation"]["hit_prob"] == rows["two_cavity"]["hit_prob"]
    assert rows["ring_resonator_opaque"]["metadata"]["r"] == 0.5


def test_schemes_text_table(capsys):
    rc, out, _ = run_cli(["schemes", "--ev", "0.5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("scheme")
    assert any(line.startswith("mach_zehnder") for line in lines)


def test_schemes_requires_a_selection(capsys):
    rc, _, err = run_cli(["schemes"], capsys)
    assert rc == 2
    assert "select at least one" in err


def test_simulate_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["simulate", "--object", "0.5", "--trials", "20000", "--seed", "7",
            "--format", "json"]
    assert run_cli(base + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(base + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_ideal_detectors_never_miss(capsys):
    rc, out, _ = run_cli(
        ["simulate", "--object", "none", "--det-eff", "1", "--trials", "5000",
         "--seed", "3", "--format", "json"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["counts"]["no_detection"] == 0
    assert doc["seed"] == 3
    assert doc["results"]["counts"]["object_hit"] == 0


def test_simulate_object_none_equals_grayness_one(capsys):
    base = ["simulate", "--trials", "100", "--seed", "1", "--format", "json"]
    _, out_none, _ = run_cli(base + ["--object", "none"], capsys)
    _, out_one, _ = run_cli(base + ["--object", "1.0"], capsys)
    none_doc, one_doc = json.loads(out_none), json.loads(out_one)
    assert none_doc["results"] == one_doc["results"]


def test_estimate_gray_from_simulated_stats(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    rc, _, _ = run_cli(
        ["simulate", "--object", "0", "--trials", "100000", "--seed", "11",
         "--format", "json", "--out", str(stats_file)],
        capsys,
    )
    assert rc == 0
    rc, out, _ = run_cli(
        ["estimate-gray", "--stats", str(stats_file), "--format", "json"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["g_hat"] <= 0.01
    assert doc["results"]["ci95"][0] <= 0.0 + 1e-9


def test_estimate_gray_inline_counts(capsys):
    rc, out, _ = run_cli(
        ["estimate-gray", "--counts", "98000,40,1950,10,0", "--format", "json"], capsys
    )
    assert rc == 0
    assert json.loads(out)["results"]["g_hat"] <= 0.05


def test_estimate_gray_recovers_empty_resonator(capsys):
    # counts drawn near the analytic no-object distribution
    rc, out, _ = run_cli(
        ["estimate-gray", "--counts", "481,98553,0,966,0", "--format", "json"], capsys
    )
    assert rc == 0
    assert json.loads(out)["results"]["g_hat"] >= 0.99


def test_estimate_gray_rejects_empty_counts(capsys):
    rc, _, _ = run_cli(["estimate-gray", "--counts", "0,0,0,0,0"], capsys)
    assert rc == 2


def test_estimate_gray_requires_one_source(capsys):
    assert run_cli(["estimate-gray"], capsys)[0] == 2
    rc, _, _ = run_cli(
        ["estimate-gray", "--counts", "1,2,3,4,5", "--stats", "x.json"], capsys
    )
    assert rc == 2


def test_estimate_gray_non_identifiable_exit_code(capsys):
    rc, _, err = run_cli(
        ["estimate-gray", "--counts", "1000,0,0,0,0", "--r1", "0.9999999999999"], capsys
    )
    assert rc == 5
    assert "insensitive" in err


def test_estimate_gray_impossible_counts_exit_code(capsys):
    rc, _, err = run_cli(["estimate-gray", "--counts", "900,50,0,0,50", "--det-eff", "1"], capsys)
    assert rc == 2
    assert "no_detection" in err


def test_optimize_symmetric_with_oracle(capsys):
    rc, out, _ = run_cli(
        ["optimize", "--rho", "0.9999", "--a", "500", "--objective", "max-min",
         "--verify", "--format", "json", "--precision", "12"],
        capsys,
    )
    assert rc == 0
    results = json.loads(out)["results"]
    assert abs(results["r1_star"] - results["r2_star"]) <= 0.005
    assert results["objective_gap"] == 0.0
    assert (results["r1_star"], results["r2_star"]) == (0.5001, 0.5001)


@pytest.mark.parametrize(
    "argv",
    [
        ["schemes", "--zeno-alpha-deg", "1e-320"],
        ["schemes", "--two-cavity", "1" + "0" * 400],
        ["estimate-gray", "--counts", "9" * 330 + ",5,0,0,0"],
    ],
    ids=["zeno-alpha", "two-cavity", "estimate-gray-counts"],
)
def test_counts_beyond_2_pow_53_exit_code(argv, capsys):
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "2^53" in err


def test_optimize_infeasible_exit_code(capsys):
    rc, _, _ = run_cli(
        ["optimize", "--objective", "tau-floor", "--eta-floor", "0.9999999"], capsys
    )
    assert rc == 6


def test_optimize_finds_narrow_feasible_stretch(capsys):
    """The former s-scan stepped over this feasible stretch and exited 6."""
    rc, out, _ = run_cli(
        ["optimize", "--rho", "0.9957912024966665", "--a", "34.17479774624492",
         "--objective", "tau-floor", "--eta-floor", "0.9991379777978913", "--format", "json"],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["results"]["r1_star"] == 0.5001


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# device settings\nr1 = 0.5\nr2 = 0.5\nrho = 1.0\nformat = json\n")
    rc, out, _ = run_cli(
        ["efficiency", "--config", str(config), "--r1", "0.6"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    # command line wins over the file, the file wins over defaults
    assert doc["config"]["r1"] == 0.6
    assert doc["config"]["r2"] == 0.5
    assert doc["config"]["rho"] == 1.0


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("banana = 3\n")
    rc, _, err = run_cli(["efficiency", "--config", str(config)], capsys)
    assert rc == 2
    assert "unknown config" in err


def test_config_file_missing(capsys):
    rc, _, _ = run_cli(["efficiency", "--config", "/does/not/exist.cfg"], capsys)
    assert rc == 2


def test_precision_flag_controls_digits(capsys):
    rc, out, _ = run_cli(["efficiency", "--precision", "3"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "eta = 0.995"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ifmsim", "efficiency", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "efficiency"
