import argparse

import pytest

from quantldpc.cli import _config, _variant, build_parser, main
from quantldpc.complexity import CN_VARIANTS, VN_VARIANTS
from quantldpc.codes import generate_regular_code, write_alist
from quantldpc.evolution import EnsembleConfig

DESIGN = ["--dc", "6", "--dv", "3", "--w", "3", "--wphi", "6",
          "--ebn0", "3.0", "--rate", "0.5", "--iterations", "4"]


def test_design_writes_artifact_and_trajectory(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["design", *DESIGN, "--out", out]) == 0
    art = tmp_path / "run.artifact.json"
    csv = tmp_path / "run.trajectory.csv"
    assert art.exists() and csv.exists()
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "iteration,mi_cn,mi_vn,delta_cn,delta_vn,r,kappa"
    assert len(lines) >= 2
    row = lines[1].split(",")
    assert row[0] == "1"
    assert 0.0 < float(row[1]) < 1.0
    # rerunning produces identical files
    body = csv.read_text()
    main(["design", *DESIGN, "--out", out])
    assert csv.read_text() == body


def test_design_uniform_reports_shift_and_offset(tmp_path):
    out = str(tmp_path / "uni")
    args = ["design", *DESIGN, "--cn", "comp-uni", "--vn", "comp-uni",
            "--out", out]
    assert main(args) == 0
    lines = (tmp_path / "uni.trajectory.csv").read_text().strip().split("\n")
    row = lines[1].split(",")
    assert row[5] != "" and row[6] != ""  # r and kappa columns populated
    int(row[5]), int(row[6])


def test_evolve_trajectory_to_stdout(capsys):
    assert main(["evolve", *DESIGN]) == 0
    out = capsys.readouterr().out
    assert out.startswith("iteration,mi_cn,mi_vn")


def test_evolve_bisect(capsys, tmp_path):
    out = str(tmp_path / "th.csv")
    args = ["evolve", *DESIGN, "--iterations", "15", "--bisect",
            "--snr=-3.0,6.0", "--target-mi", "0.9999", "--out", out]
    assert main(args) == 0
    text = (tmp_path / "th.csv").read_text()
    assert text.startswith("threshold_db,status,probes")
    assert ",ok," in text
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[-1].startswith("threshold_db=") and "status=ok" in printed[-1]
    # one line per decision-path probe, in decision order, before the result
    probes = [line.split() for line in printed[:-1]]
    assert len(probes) == int(printed[-1].rsplit("probes=", 1)[1]) > 2
    assert all(p[0] == "probe" and p[2] in ("converged=True", "converged=False")
               for p in probes)
    snrs = [float(p[1].removeprefix("snr_db=")) for p in probes]
    assert snrs[:2] == [-3.0, 6.0]
    threshold = float(printed[-1].split()[0].removeprefix("threshold_db="))
    assert ["converged=True"] == [p[2] for p, s in zip(probes, snrs) if s == threshold]


def test_simulate_with_alist(tmp_path, capsys):
    code = generate_regular_code(96, 3, 6, seed=5)
    alist = tmp_path / "code.alist"
    alist.write_text(write_alist(code))
    out = str(tmp_path / "fer.csv")
    args = ["simulate", *DESIGN, "--w", "4", "--wphi", "8",
            "--code", str(alist), "--snr", "4.0",
            "--frames", "256", "--target-errors", "1000000",
            "--seed", "3", "--out", out]
    assert main(args) == 0
    lines = (tmp_path / "fer.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "256"


def test_simulate_generated_code_to_stdout(capsys):
    args = ["simulate", *DESIGN, "--gen-n", "96", "--gen-seed", "5",
            "--snr", "5.0", "--frames", "128", "--target-errors", "99999"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("ebn0_db,")
    assert len(out.strip().split("\n")) == 2


def test_simulate_rejects_zero_frames(capsys):
    args = ["simulate", *DESIGN, "--gen-n", "96", "--snr", "3.0",
            "--frames", "0"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--frames" in capsys.readouterr().err


def test_simulate_needs_a_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *DESIGN, "--snr", "3.0"])
    assert exc.value.code == 2


def test_complexity_table(capsys):
    assert main(["complexity", "--dc", "32", "--dv", "6", "--w", "4",
                 "--wphi", "8"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "node,variant,operations,translations,memory_bits,out_of_model"
    comp_row = [l for l in out if l.startswith("cn,comp,")][0]
    assert comp_row.split(",")[2] == "158"


def test_unknown_variant_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--dc", "6", "--dv", "3", "--ebn0", "3.0",
              "--rate", "0.5", "--cn", "turbo"])
    assert exc.value.code == 2


def test_variant_choices_come_from_the_registry():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in ("design", "evolve", "simulate"):
        flags = {a.dest: a for a in subparsers.choices[command]._actions}
        assert tuple(map(_variant, flags["cn"].choices)) == tuple(CN_VARIANTS)
        assert tuple(map(_variant, flags["vn"].choices)) == tuple(VN_VARIANTS)
        assert "comp-uni" in flags["cn"].choices and "comp-uni" in flags["vn"].choices


@pytest.mark.parametrize("command", ["design", "evolve"])
def test_unset_flags_leave_the_config_defaults(command):
    args = build_parser().parse_args([command, "--dc", "6", "--dv", "3", "--ebn0", "3.0",
                                      "--rate", "0.5"])
    # w, wphi, iterations and the variants have no config default: the CLI's own
    assert _config(args) == EnsembleConfig(dc=6, dv=3, w=4, wphi=8, iterations=50,
                                           cn_variant="comp", vn_variant="comp",
                                           design_ebn0_db=3.0, rate=0.5)


def test_config_contradiction_reports_cleanly(capsys):
    # omsq check nodes require the omsq variable node: a config error,
    # not a traceback
    args = ["design", "--dc", "6", "--dv", "3", "--ebn0", "3.0",
            "--rate", "0.5", "--cn", "omsq", "--vn", "comp"]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("ebn0,extra,message", [
    ("inf", [], "ebn0_db must be finite"), ("-inf", [], "ebn0_db must be finite"),
    ("3.0", ["--clip-llr", "nan"], "clip_llr must be positive and finite"),
    ("3.0", ["--clip-llr", "inf"], "clip_llr must be positive and finite")])
def test_design_rejects_a_non_finite_channel(tmp_path, capsys, ebn0, extra, message):
    # an infinite Eb/N0 used to end in a ZeroDivisionError traceback
    args = ["design", "--dc", "6", "--dv", "3", f"--ebn0={ebn0}", "--rate", "0.5", *extra,
            "--out", str(tmp_path / "x")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_design_rejects_a_nan_prune_tol(tmp_path, capsys):
    assert main(["design", *DESIGN, "--prune-tol", "nan", "--out", str(tmp_path / "x")]) == 2
    assert "prune_tol must lie in" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,snr", [("evolve", "1,x"), ("evolve", ""),
                                         ("simulate", "3.0,x"), ("simulate", "")])
def test_a_malformed_snr_list_is_a_usage_error(tmp_path, capsys, command, snr):
    # float() raised a ValueError that main did not catch: a traceback
    extra = ["--bisect"] if command == "evolve" else ["--gen-n", "96"]
    assert main([command, *DESIGN, *extra, f"--snr={snr}",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: --snr must be a comma list of numbers, not {snr!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["design", "evolve"])
def test_a_negative_delta_search_is_an_error(tmp_path, capsys, command):
    # it used to be accepted and act as 0
    assert main([command, *DESIGN, "--delta-search", "-3", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: delta_search_points must be nonnegative")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cn,vn", [("comp", "comp"), ("comp-uni", "comp-uni"),
                                   ("omsq", "omsq")])
def test_simulate_a_saved_artifact_equals_designing_in_place(tmp_path, cn, vn):
    # design, save, load: the loaded decoder simulates as the one designed
    # by simulate itself
    flags = [*DESIGN, "--cn", cn, "--vn", vn]
    sim = ["--gen-n", "96", "--snr", "2.0,3.0", "--frames", "64",
           "--target-errors", "1000000", "--seed", "5"]
    assert main(["design", *flags, "--out", str(tmp_path / "d")]) == 0
    assert main(["simulate", *flags, *sim, "--out", str(tmp_path / "in_place.csv")]) == 0
    assert main(["simulate", *flags, *sim, "--artifact", str(tmp_path / "d.artifact.json"),
                 "--out", str(tmp_path / "loaded.csv")]) == 0
    loaded = (tmp_path / "loaded.csv").read_text()
    assert loaded == (tmp_path / "in_place.csv").read_text()
    assert len(loaded.strip().split("\n")) == 3
