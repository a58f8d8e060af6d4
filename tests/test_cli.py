"""CLI contract: document shape, determinism, exit codes."""

import json
import math
import time
import warnings
from importlib import resources

import jsonschema
import pytest

from cqesim import cli
from cqesim.cli import main
from cqesim.evolution import RESET_MODES
from cqesim.models import PairingModel, SpherePoint, build_pairing_hamiltonian, sphere_state
from cqesim.residuals import RESIDUAL_VARIANTS, energy
from cqesim.solver import EXECUTION_MODES, LINE_SEARCH_KINDS


def _schema():
    text = (resources.files("cqesim") / "schemas" / "run_schema.json").read_text()
    return json.loads(text)


def test_schema_enums_match_the_code():
    config = _schema()["properties"]["config"]["properties"]
    assert config["variant"]["enum"] == list(RESIDUAL_VARIANTS)
    assert config["execution"]["enum"] == list(EXECUTION_MODES)
    assert config["line_search"]["properties"]["kind"]["enum"] == list(LINE_SEARCH_KINDS)
    assert config["dilation"]["properties"]["reset_mode"]["enum"] == list(RESET_MODES)


def _run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_document_validates_and_converges(tmp_path):
    code, out = _run(tmp_path, "run.json", ["run", "--fcidump", "h2_d0.74", "--variant", "cse"])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema())
    assert doc["status"] == "converged"
    assert abs(doc["final_energy"] - doc["fci_energy"]) < 1e-6
    assert doc["source"] == "h2_d0.74"
    assert "wall_time" not in doc["iterations"][0]
    for section, stale in [("line_search", "shrink"), ("dilation", "wolfe_c1")]:
        doc["config"][section][stale] = 1e-4
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, _schema())
        del doc["config"][section][stale]


def test_run_is_byte_identical(tmp_path):
    argv = ["run", "--fcidump", "h2_d0.74"]
    _, a = _run(tmp_path, "a.json", argv)
    _, b = _run(tmp_path, "b.json", argv)
    assert a.read_bytes() == b.read_bytes()


def test_sampled_run_same_seed_identical_different_seed_not(tmp_path):
    argv = [
        "run", "--fcidump", "h2_d0.74", "--execution", "sampled",
        "--shots", "300", "--max-iterations", "4", "--seed",
    ]
    _, a = _run(tmp_path, "a.json", argv + ["9"])
    _, b = _run(tmp_path, "b.json", argv + ["9"])
    _, c = _run(tmp_path, "c.json", argv + ["10"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    jsonschema.validate(json.loads(a.read_text()), _schema())


def test_pairing_acse_equator_converges_above_ground(tmp_path):
    code, out = _run(tmp_path, "p.json", ["run", "--model", "pairing", "--variant", "acse"])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema())
    assert doc["status"] == "converged"
    assert doc["config"]["init"] == "equator:0.3"
    assert doc["final_energy"] > doc["fci_energy"] + 0.1


def test_fci_init_converges_at_iteration_zero(tmp_path):
    code, out = _run(
        tmp_path, "f.json", ["run", "--fcidump", "h4_d1.20", "--init", "fci"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["iterations"]) == 1
    assert doc["iterations"][0]["eta"] == 0.0
    assert doc["iterations"][0]["norm_r"] < 1e-9


def test_dilated_run_reports_success_prob(tmp_path):
    code, out = _run(
        tmp_path, "d.json", ["run", "--fcidump", "h2_d0.74", "--execution", "dilated"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema())
    assert 0 < doc["final_success_prob"] < 1


def test_dilated_run_whose_success_prob_underflows_completes(tmp_path):
    # one reset per 0.002-slice books a product below the float64 range by
    # iteration 7; the report shows 5e-324, the least positive float
    code, out = _run(
        tmp_path, "faint.json",
        [
            "run", "--fcidump", "h4_d1.40", "--variant", "hcse", "--execution", "dilated",
            "--reset-mode", "every_k", "--reset-cap", "1", "--epsilon", "0.002",
            "--max-iterations", "20",
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema())
    assert doc["status"] == "converged"
    assert doc["final_success_prob"] == 5e-324
    assert '"final_success_prob": 5e-324' in out.read_text()


def test_unconverged_run_exits_two(tmp_path):
    code, out = _run(
        tmp_path, "u.json",
        ["run", "--fcidump", "h4_d1.20", "--max-iterations", "3", "--tolerance", "1e-12"],
    )
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["status"] == "max_iterations"
    jsonschema.validate(doc, _schema())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the estimator's own, at delta 1e-200 and 1e-320
@pytest.mark.parametrize("delta, value", [("1e-200", "inf"), ("1e-320", "nan")])
def test_report_that_json_cannot_carry_exits_one_without_output(tmp_path, capsys, delta, value):
    # a probe step this small overflows the residual estimate, which JSON
    # could not carry; the run refuses it at its first estimate, naming the delta
    code, out = _run(
        tmp_path, "x.json",
        ["run", "--fcidump", "h2_d0.74", "--execution", "sampled", "--shots", "100", "--seed", "1",
         "--delta", delta],
    )
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: estimated residual norm {value} is not finite at probe delta {delta}\n"


def test_missing_input_exits_one_without_output(tmp_path, capsys):
    code, out = _run(tmp_path, "x.json", ["run", "--fcidump", "does_not_exist"])
    assert code == 1
    assert not out.exists()
    assert "does_not_exist" in capsys.readouterr().err


def test_probe_beyond_the_taylor_bound_exits_one_without_output(tmp_path, capsys):
    # delta = 1e9 gives the probe's V-step a 1-norm near 1.8e9, which the
    # Taylor kernel refuses at once rather than summing segments for days
    start = time.perf_counter()
    code, out = _run(
        tmp_path, "x.json",
        ["run", "--fcidump", "h2_d0.74", "--execution", "sampled", "--shots", "100", "--seed", "1",
         "--delta", "1e9"],
    )
    assert time.perf_counter() - start < 20.0
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


_RUN = ["run", "--fcidump", "h2_d0.74"]
_STUDY = ["residual-study", "--fixture", "h2_d0.74"]
_SCAN = ["scan", "--fixtures", "h2_d0.74"]


@pytest.mark.parametrize(
    "patched, argv",
    [
        pytest.param("cqe_run", _RUN, id="cqe_run-run"),
        pytest.param("cqe_run", _RUN + ["--init", "fci"], id="cqe_run-run-fci"),
        pytest.param("cqe_run", _STUDY, id="cqe_run-study"),
        pytest.param("cqe_run", _STUDY + ["--init", "fci"], id="cqe_run-study-fci"),
        pytest.param("cqe_run", _SCAN, id="cqe_run-scan"),
        # the FCI oracle serves the run report, the fci seed and the scan row
        pytest.param("fci_solve", _RUN, id="fci_solve-run"),
        pytest.param("fci_solve", _RUN + ["--init", "fci"], id="fci_solve-run-fci"),
        pytest.param("fci_solve", _STUDY + ["--init", "fci"], id="fci_solve-study-fci"),
        pytest.param("fci_solve", _SCAN, id="fci_solve-scan"),
    ],
)
def test_solver_runtime_error_exits_one_without_output(tmp_path, capsys, monkeypatch, patched, argv):
    def failing(*args, **kwargs):
        raise RuntimeError("matrix exponential series produced non-finite values")

    monkeypatch.setattr(cli, patched, failing)
    code, out = _run(tmp_path, "x.out", argv)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("produced non-finite values\n")


def _broken_fcidump(tmp_path, defect):
    text = (resources.files("cqesim") / "fixtures" / "h2_d0.74.fcidump").read_text()
    if defect == "four-field record":
        header, records = text.split("&END\n")
        first, rest = records.split("\n", 1)
        text = f"{header}&END\n{first.rsplit(None, 1)[0]}\n{rest}"
    elif defect == "zero first index":
        text += "0.25 0 2 0 0\n"
    else:
        text = text.replace("NELEC=2", "NELEC=3")
    path = tmp_path / "broken.fcidump"
    path.write_text(text)
    return path


@pytest.mark.parametrize("defect", ["four-field record", "NELEC=3 with MS2=0", "zero first index"])
@pytest.mark.parametrize(
    "command", [["run", "--fcidump"], ["residual-study", "--fixture"], ["scan", "--fixtures"]]
)
def test_malformed_fcidump_or_impossible_sector_exits_one(tmp_path, capsys, defect, command):
    path = _broken_fcidump(tmp_path, defect)
    code, out = _run(tmp_path, "out.txt", command + [str(path)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "broken.fcidump" in err


@pytest.mark.parametrize(
    "record, part", [("nan 1 1 0 0", "h"), ("inf 1 1 1 1", "eri"), ("inf 0 0 0 0", "core")]
)
@pytest.mark.parametrize("command", [["run", "--fcidump"], ["scan", "--fixtures"]])
def test_non_finite_fcidump_exits_one_naming_the_integral(tmp_path, capsys, record, part, command):
    text = (resources.files("cqesim") / "fixtures" / "h2_d0.74.fcidump").read_text()
    path = tmp_path / "nonfinite.fcidump"
    path.write_text(text + record + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, "out.txt", command + [str(path)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.endswith(f"nonfinite.fcidump: non-finite integral in {part}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_bad_flags_exit_one(capsys):
    assert main(["run", "--variant", "bogus", "--fcidump", "h2_d0.74"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_bad_init_spec_exits_one(tmp_path):
    code, out = _run(
        tmp_path, "y.json", ["run", "--fcidump", "h2_d0.74", "--init", "equator:0.3"]
    )
    assert code == 1  # equator init needs the pairing model
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run"], "pick an input"),
        (["run", "--model", "ising"], "unknown model 'ising'"),
        (["run", "--model", "pairing", "--pairing-constants", "1,2,3"], "must be four"),
        (["run", "--model", "pairing", "--init", "sphere:0,0,0"], "zero vector"),
        (["residual-study", "--fixture", "h2_d0.74", "--variants", ","], "at least one variant"),
    ],
)
def test_bad_source_or_init_exits_one_naming_it(tmp_path, capsys, argv, named):
    code, out = _run(tmp_path, "b.out", argv)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_sphere_init_starts_from_the_normalized_point(tmp_path):
    code, out = _run(
        tmp_path, "s.json", ["run", "--model", "pairing", "--init", "sphere:2,2,0", "--max-iterations", "1"]
    )
    assert code in (0, 2)
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema())
    model = PairingModel()
    start = sphere_state(model, SpherePoint(math.sqrt(0.5), math.sqrt(0.5), 0.0))
    assert doc["iterations"][0]["energy"] == pytest.approx(energy(build_pairing_hamiltonian(model), start), abs=1e-12)


@pytest.mark.parametrize("point", ["1e200,0,0", "1e-200,0,0"])
def test_sphere_init_of_any_finite_scale_starts_where_its_unit_point_starts(tmp_path, point):
    # the norm of a point that squares beyond the float range, or below it,
    # is still its length: hypot neither overflows nor underflows
    docs = []
    for spec in (point, "1,0,0"):
        code, out = _run(
            tmp_path, "s.json", ["run", "--model", "pairing", "--init", f"sphere:{spec}", "--max-iterations", "1"]
        )
        assert code in (0, 2)
        doc = json.loads(out.read_text())
        assert doc["config"].pop("init") == f"sphere:{spec}"
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("spec", ["hf:0.3", "fci:1", "hf:"])
def test_hf_and_fci_inits_take_no_suffix(tmp_path, capsys, spec):
    code, out = _run(tmp_path, "s.json", ["run", "--fcidump", "h2_d0.74", "--init", spec])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: unknown init {spec!r}")


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--init", "sphere:nan,0,0"], "coordinates must be finite"),
        (["--init", "sphere:1,inf,0"], "coordinates must be finite"),
        (["--init", "equator:inf"], "coordinates must be finite"),
        (["--pairing-constants", "nan,1,2,3"], "e0 = nan must be finite"),
        (["--pairing-constants", "0,1,2,inf"], "t = inf must be finite"),
    ],
)
def test_non_finite_pairing_input_exits_one(tmp_path, capsys, flags, named):
    code, out = _run(tmp_path, "n.json", ["run", "--model", "pairing"] + flags)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "command",
    [["run", "--fcidump", "h2_d0.74"], ["scan", "--fixtures", "h2_d0.74"],
     ["residual-study", "--fixture", "h2_d0.74"]],
)
def test_unwritable_output_exits_one_before_solving(tmp_path, capsys, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli, "cqe_run", forbidden)
    for output in (tmp_path / "nodir" / "x.out", tmp_path):
        assert main(command + ["--output", str(output)]) == 1
        assert capsys.readouterr().err.startswith("error: output ")
    assert list(tmp_path.iterdir()) == []


def test_sampled_without_seed_is_input_error(tmp_path):
    code, out = _run(
        tmp_path, "z.json",
        ["run", "--fcidump", "h2_d0.74", "--execution", "sampled", "--shots", "100"],
    )
    assert code == 1
    assert not out.exists()


def test_shots_without_sampled_execution_builds_no_estimator(tmp_path):
    code, out = _run(tmp_path, "e.json", ["run", "--fcidump", "h2_d0.74", "--shots", "100"])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema())
    assert doc["config"]["estimator"] is None


@pytest.mark.parametrize(
    "flags",
    [
        ["--execution", "sampled", "--shots", "0", "--seed", "1"],
        ["--execution", "sampled", "--shots", "100", "--seed", "1", "--delta", "0"],
        ["--epsilon", "0"],
        ["--execution", "sampled", "--shots", "100", "--seed", "1", "--delta", "nan"],
        ["--execution", "dilated", "--epsilon", "inf"],
        ["--tolerance", "nan"],
        ["--line-search", "fixed:inf"],
        ["--line-search", "golden"],
        ["--execution", "sampled", "--shots", str(2**63), "--seed", "1"],
    ],
)
def test_bad_estimator_or_dilation_setting_is_input_error(tmp_path, flags):
    code, out = _run(tmp_path, "b.json", ["run", "--fcidump", "h2_d0.74"] + flags)
    assert code == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_h2_family(tmp_path):
    code, out = _run(tmp_path, "scan.csv", ["scan", "--fixtures", "h2_*"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header, rows = lines[0], lines[1:]
    assert header == "geometry_label,E_hf,E_fci,E_cqe,iterations,final_residual_norm,final_variance"
    assert len(rows) == 8
    labels = [r.split(",")[0] for r in rows]
    assert labels == sorted(labels)
    for row in rows:
        parts = row.split(",")
        e_hf, e_fci, e_cqe = float(parts[1]), float(parts[2]), float(parts[3])
        assert abs(e_cqe - e_fci) < 1e-6
        assert e_hf >= e_fci


def test_scan_is_byte_identical(tmp_path):
    argv = ["scan", "--fixtures", "h2_d0.74", "h2_d1.00"]
    _, a = _run(tmp_path, "a.csv", argv)
    _, b = _run(tmp_path, "b.csv", argv)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("pattern", ["h2_d0.74.fcidump", "h2_*.fcidump"])
def test_scan_takes_fixture_names_with_the_suffix(tmp_path, monkeypatch, pattern):
    monkeypatch.chdir(tmp_path)  # no file of that name beside the run
    code, out = _run(tmp_path, "s.csv", ["scan", "--fixtures", pattern])
    assert code == 0
    labels = [row.split(",")[0] for row in out.read_text().strip().split("\n")[1:]]
    assert "h2_d0.74" in labels
    assert len(labels) == (8 if "*" in pattern else 1)


def test_scan_empty_glob_exits_one(tmp_path):
    code, out = _run(tmp_path, "e.csv", ["scan", "--fixtures", "xe2_*"])
    assert code == 1
    assert not out.exists()


def test_scan_accepts_explicit_paths(tmp_path):
    import cqesim.hamiltonian as hamiltonian

    src = hamiltonian.load_fixture("h2_d0.74")
    path = tmp_path / "copy.fcidump"
    path.write_text(hamiltonian.write_fcidump(src))
    code, out = _run(tmp_path, "p.csv", ["scan", "--fixtures", str(path)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert rows[0].split(",")[0] == "copy"


# ---------------------------------------------------------------------------
# residual-study
# ---------------------------------------------------------------------------


def test_residual_study_three_variants(tmp_path):
    code, out = _run(
        tmp_path, "study.csv",
        ["residual-study", "--fixture", "h4_d1.20", "--max-iterations", "40"],
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "variant,n,norm2,variance"
    variants = {line.split(",")[0] for line in lines[1:]}
    assert variants == {"cse", "hcse", "acse"}
    for line in lines[1:]:
        _, n, norm2, var = line.split(",")
        assert float(norm2) >= 0 and float(var) >= -1e-14


def test_residual_study_fci_seed_single_tiny_row(tmp_path):
    code, out = _run(
        tmp_path, "fci.csv",
        ["residual-study", "--fixture", "h2_d0.74", "--variants", "cse", "--init", "fci"],
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 1
    _, _, norm2, var = rows[0].split(",")
    assert float(norm2) < 1e-12
    assert float(var) < 1e-12


def test_residual_study_variant_flag_selects_one_channel(tmp_path):
    code, out = _run(
        tmp_path, "acse.csv",
        ["residual-study", "--fixture", "h2_d0.74", "--variant", "acse"],
    )
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert rows and all(row.startswith("acse,") for row in rows)


@pytest.mark.parametrize("flags", [["--max-iterations", "0"], ["--tolerance", "nan"]])
def test_residual_study_bad_setting_exits_one(tmp_path, flags):
    code, out = _run(tmp_path, "bad.csv", ["residual-study", "--fixture", "h2_d0.74"] + flags)
    assert code == 1
    assert not out.exists()


def test_residual_study_bad_variant_exits_one(tmp_path):
    code, out = _run(
        tmp_path, "bad.csv",
        ["residual-study", "--fixture", "h2_d0.74", "--variants", "cse,magic"],
    )
    assert code == 1
    assert not out.exists()
