"""End-to-end tests for the command-line interface."""

import csv
import json
from importlib import resources

import pytest

import metaperm.cli
import metaperm.inference
from metaperm import (
    NonConvergenceError,
    PermutationPlan,
    confidence_interval,
    confidence_region,
    ingest_wide,
    median_unbiased_estimate,
    write_region_csv,
    write_wide,
)
from metaperm.cli import main
from metaperm.permutation import DEFAULT_B

from conftest import make_mvn, make_univariate


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bivariate.csv"
    write_wide(make_mvn(11, 5), path)
    return str(path)


@pytest.fixture(scope="module")
def uni_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "univariate.csv"
    write_wide(make_univariate(42, 10), path)
    return str(path)


@pytest.fixture(scope="module")
def diag_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "diag.csv"
    path.write_text(
        "id,tp,fn,tn,fp\n"
        "s1,45,5,80,20\n"
        "s2,38,12,70,30\n"
        "s3,50,0,75,25\n"
        "s4,41,9,82,18\n"
        "s5,36,14,64,36\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def nma_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "nma.csv"
    path.write_text(
        "study,treatment,events,total\n"
        "s1,control,10,100\n"
        "s1,drug,20,100\n"
        "s2,control,8,80\n"
        "s2,other,12,90\n"
        "s3,drug,5,50\n"
        "s3,other,6,60\n",
        encoding="utf-8",
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(text):
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


class TestFit:
    def test_ml_json(self, capsys, wide_csv):
        code, out, _ = run(capsys, ["fit", "ml", wide_csv])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "fit"
        assert doc["method"] == "ml"
        assert doc["converged"] is True
        assert len(doc["mu"]) == 2
        assert doc["labels"] == ["y1", "y2"]

    def test_reml_csv(self, capsys, wide_csv):
        code, out, _ = run(capsys, ["fit", "reml", wide_csv, "--format", "csv"])
        assert code == 0
        pairs = kv(out)
        assert pairs["method"] == "reml"
        assert pairs["converged"] == "True"
        assert len(pairs["mu"].split(";")) == 2

    def test_structure_flag(self, capsys, wide_csv):
        code, out, _ = run(capsys, ["fit", "ml", wide_csv, "--structure", "cs:0.5"])
        assert code == 0
        assert json.loads(out)["converged"] is True


class TestJoint:
    def test_exhaustive_moment(self, capsys, wide_csv):
        code, out, _ = run(
            capsys,
            ["test-joint", wide_csv, "--mu-null", "0,0", "--stat", "t2",
             "--perm", "exhaustive"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "test"
        assert doc["stat"] == "moment"
        assert doc["mode"] == "exhaustive"
        assert doc["n_permutations"] == 32
        assert doc["seed"] is None
        assert abs(doc["p_value"] * 32 - round(doc["p_value"] * 32)) < 1e-12
        assert isinstance(doc["reject"], bool)

    def test_moment_on_network(self, capsys, nma_csv):
        # a network has missing outcomes by construction: each study
        # observes only its own arms' contrasts with the reference
        code, out, _ = run(
            capsys,
            ["test-joint", nma_csv, "--input-format", "nma", "--reference", "control",
             "--mu-null", "0,0", "--stat", "t2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stat"] == "moment"
        assert (doc["mode"], doc["n_permutations"], doc["n_failed"]) == ("exhaustive", 8, 0)

    def test_random_cml(self, capsys, wide_csv):
        code, out, _ = run(
            capsys,
            ["test-joint", wide_csv, "--mu-null", "0.2,-0.1", "--stat", "t1",
             "--perm", "120", "--seed", "9"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stat"] == "cml"
        assert doc["mode"] == "random"
        assert doc["n_permutations"] == 120
        assert doc["seed"] == 9

    @pytest.mark.parametrize("n, perm, seed", [(12, "exhaustive", None), (13, str(DEFAULT_B), 5)])
    def test_default_perm_follows_study_count(self, capsys, tmp_path, n, perm, seed):
        # without --perm, 12 studies are enumerated and report no seed;
        # 13 draw DEFAULT_B assignments from --seed. Either run's bytes
        # are those of the plan given explicitly
        path = tmp_path / "studies.csv"
        write_wide(make_mvn(n, n), path)
        argv = ["test-joint", str(path), "--mu-null", "0,0", "--stat", "t2", "--seed", "5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == seed
        assert doc["n_permutations"] == (2 ** n if seed is None else DEFAULT_B)
        assert run(capsys, [*argv, "--perm", perm]) == (0, out, "")

    def test_wrong_null_length(self, capsys, wide_csv):
        code, _, err = run(capsys, ["test-joint", wide_csv, "--mu-null", "0,0,0"])
        assert code == 1
        assert "usage error" in err


class TestMarginal:
    def test_component_by_label_and_index_agree(self, capsys, wide_csv):
        argv = ["test-marginal", wide_csv, "--mu1-null", "0.0",
                "--perm", "100", "--seed", "1", "--component"]
        code1, out1, _ = run(capsys, argv + ["y2"])
        code2, out2, _ = run(capsys, argv + ["2"])
        assert code1 == code2 == 0
        assert json.loads(out1)["p_value"] == json.loads(out2)["p_value"]
        assert json.loads(out1)["component"] == 1

    def test_deterministic_bytes(self, capsys, wide_csv, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["test-marginal", wide_csv, "--component", "y1",
                "--mu1-null", "0.1", "--perm", "200", "--seed", "7"]
        assert main(argv + ["--output", str(f1)]) == 0
        assert main(argv + ["--output", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_component(self, capsys, wide_csv):
        code, _, err = run(
            capsys,
            ["test-marginal", wide_csv, "--component", "sens", "--mu1-null", "0.0"],
        )
        assert code == 1
        assert "unknown outcome" in err


class TestCi:
    def test_deterministic_bytes_and_fields(self, capsys, uni_csv, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["ci", uni_csv, "--component", "1", "--alpha", "0.05",
                "--perm", "150", "--seed", "3"]
        assert main(argv + ["--output", str(f1)]) == 0
        assert main(argv + ["--output", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        doc = json.loads(f1.read_text())
        assert doc["kind"] == "interval"
        assert doc["lower"] < doc["center"] < doc["upper"]
        assert doc["alpha"] == 0.05
        assert doc["label"] == "y1"
        assert doc["seed"] == 3
        for side in ("lower", "upper"):
            assert doc["boundary"][side]["monotone_crossing"] is True


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_fit_and_the_library_interval(self, capsys, monkeypatch, uni_csv, tmp_path, fmt):
        # ci fits ML once, and prints what confidence_interval started at
        # median_unbiased_estimate gives
        argv = ["ci", uni_csv, "--component", "1", "--perm", "150", "--seed", "3",
                "--format", fmt]
        real_fit = metaperm.inference.fit_ml
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        shipped = tmp_path / "shipped.out"
        with monkeypatch.context() as m:
            m.setattr(metaperm.inference, "fit_ml", counting_fit)
            assert main(argv + ["--output", str(shipped)]) == 0
        assert len(fits) == 1

        def from_estimate(data, component, *, plan, structure, **kwargs):
            center = median_unbiased_estimate(data, component, plan, structure)
            return confidence_interval(
                data, component, plan=plan, structure=structure, center=center, **kwargs
            )

        library = tmp_path / "library.out"
        monkeypatch.setattr(metaperm.cli, "confidence_interval", from_estimate)
        assert main(argv + ["--output", str(library)]) == 0
        capsys.readouterr()
        assert shipped.read_bytes() == library.read_bytes()


class TestRegion:
    def test_csv_grid(self, capsys, wide_csv):
        code, out, _ = run(
            capsys,
            ["region", wide_csv, "--axes", "y1,y2",
             "--bounds=-0.2:0.8,-0.8:0.4", "--resolution", "20",
             "--stat", "t2", "--perm", "exhaustive", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu1,mu2,statistic,threshold,accepted,p_value"
        assert len(lines) == 401
        flags = {line.split(",")[4] for line in lines[1:]}
        assert flags <= {"true", "false"}

    def test_csv_bytes_match_write_region_csv(self, tmp_path, wide_csv):
        out = tmp_path / "cli.csv"
        code = main(
            ["region", wide_csv, "--axes", "y1,y2", "--bounds=-0.2:0.8,-0.8:0.4",
             "--stat", "t2", "--perm", "exhaustive", "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        grid = confidence_region(
            ingest_wide(wide_csv),
            bounds=[(-0.2, 0.8), (-0.8, 0.4)],
            stat="moment",
            plan=PermutationPlan.exhaustive(),
        )
        ref = tmp_path / "ref.csv"
        write_region_csv(grid, ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")  # corner study corrected
    def test_axes_by_label(self, capsys, diag_csv):
        code, out, _ = run(
            capsys,
            ["region", diag_csv, "--input-format", "diagnostic",
             "--axes", "sens,fpr", "--bounds=-1:1,-2:0",
             "--stat", "t2", "--perm", "exhaustive"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "region"
        assert doc["labels"] == ["sens", "fpr"]

    def test_single_axis_rejected(self, capsys, wide_csv):
        code, _, err = run(capsys, ["region", wide_csv, "--axes", "y1"])
        assert code == 1
        assert "two" in err


class TestSimulate:
    def test_coverage_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--scenario", "gauss2-s1", "--method", "t2",
             "--reps", "100", "--seed", "11"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "coverage"
        assert doc["method"] == "perm-t2"
        assert doc["replications"] == 100
        assert 0.85 <= doc["coverage"] <= 1.0
        assert doc["seed"] == 11

    def test_coverage_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--scenario", "gauss2-s1", "--method", "t2",
             "--reps", "100", "--seed", "11", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][0] == "scenario"
        assert rows[1][0] == "gauss2-s1"

    @pytest.mark.parametrize(
        "scenario, extra, expected",
        [
            # no --perm: exhaustive up to 12 studies, else DEFAULT_B
            # draws from --seed
            ("gauss2-s1", [], ("exhaustive", None, None)),
            ("gauss2-s2", [], ("exhaustive", None, None)),
            ("gauss2-n13", [], ("random", DEFAULT_B, 11)),
            ("gauss2-s1", ["--perm", "2400"], ("random", 2400, 11)),
            ("gauss2-s1", ["--perm", "300"], ("random", 300, 11)),
            ("gauss2-s1", ["--perm", "exhaustive"], ("exhaustive", None, None)),
        ],
    )
    def test_explicit_perm_reaches_experiment(
        self, capsys, monkeypatch, tmp_path, scenario, extra, expected
    ):
        # an explicit --perm equal to the default draw count used to be
        # dropped in favour of the scenario's own plan
        manifest = tmp_path / "scenarios.csv"
        manifest.write_text(
            (resources.files("metaperm") / "data/scenarios.csv").read_text(encoding="utf-8")
            + "gauss2-n13,gaussian_bivariate,13,,,,,0.024,0.7,0.0,,,,,\n",
            encoding="utf-8",
        )
        seen = {}
        real = metaperm.cli.coverage_experiment

        def spy(scenario, method, **kwargs):
            seen["plan"] = kwargs["plan"]
            return real(scenario, method, **kwargs)

        monkeypatch.setattr(metaperm.cli, "coverage_experiment", spy)
        code, _, _ = run(
            capsys,
            ["simulate", "--scenario", scenario, "--manifest", str(manifest),
             "--method", "t2", "--reps", "100", "--seed", "11", *extra],
        )
        assert code == 0
        plan = seen["plan"]
        assert (plan.mode, plan.n_draws, plan.seed) == expected

    def test_unknown_scenario(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--scenario", "nope", "--method", "t2"]
        )
        assert code == 1
        assert "unknown scenario" in err

    def test_component_out_of_range(self, capsys):
        # a 1-based index outside the scenario's outcomes is a usage error,
        # reported in the 1-based terms the option takes
        for component in ("3", "0"):
            code, _, err = run(
                capsys,
                ["simulate", "--scenario", "diag-n8-d1-h2", "--method", "perm-t3",
                 "--component", component],
            )
            assert code == 1
            assert f"component index {component} out of range 1..2" in err


class TestIngestCheck:
    def test_diagnostic_reports_warnings(self, capsys, diag_csv):
        code, out, _ = run(
            capsys, ["ingest-check", diag_csv, "--input-format", "diagnostic"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["sens", "fpr"]
        assert doc["scales"] == ["logit", "logit"]
        assert doc["complete"] is True
        assert doc["n_studies"] == 5
        assert any("continuity" in w for w in doc["warnings"])

    def test_warning_is_one_plain_stderr_line(self, capsys, diag_csv):
        # s3's zero cell gets a continuity correction; the warning reaches
        # stderr as one "warning:" line, without Python's source location
        code, _, err = run(capsys, ["fit", "ml", diag_csv, "--input-format", "diagnostic"])
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning:") and "continuity" in lines[0]
        assert ".py:" not in err

    def test_nma_masks(self, capsys, nma_csv):
        code, out, _ = run(
            capsys,
            ["ingest-check", nma_csv, "--input-format", "nma",
             "--reference", "control"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_outcomes"] == 2
        assert doc["labels"] == ["drug", "other"]
        assert doc["complete"] is False
        assert doc["observed_per_outcome"] == [2, 2]

    def test_nma_requires_reference(self, capsys, nma_csv):
        code, _, err = run(capsys, ["ingest-check", nma_csv, "--input-format", "nma"])
        assert code == 1
        assert "--reference" in err


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, ["fit", "ml", "/nonexistent/data.csv"])
        assert code == 2
        assert "data error" in err

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y1\na,0.5\n", encoding="utf-8")
        code, _, err = run(capsys, ["fit", "ml", str(bad)])
        assert code == 2
        assert "data error" in err

    def test_nonconvergence_exit(self, capsys, wide_csv, monkeypatch):
        def stall(*args, **kwargs):
            raise NonConvergenceError("iteration budget exhausted")

        monkeypatch.setattr(metaperm.cli, "fit_ml", stall)
        code, _, err = run(capsys, ["fit", "ml", wide_csv])
        assert code == 3
        assert "non-convergence" in err

    def test_internal_error_exit(self, capsys, wide_csv, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(metaperm.cli, "fit_ml", boom)
        code, _, err = run(capsys, ["fit", "ml", wide_csv])
        assert code == 4
        assert "internal error" in err

    def test_bad_perm_token(self, capsys, wide_csv):
        code, _, err = run(
            capsys, ["test-joint", wide_csv, "--mu-null", "0,0", "--perm", "many"]
        )
        assert code == 1
        assert "usage error" in err

    def test_bad_structure_token(self, capsys, wide_csv):
        code, _, err = run(capsys, ["fit", "ml", wide_csv, "--structure", "cs"])
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["test-joint", "{wide}", "--mu-null", "0,0", "--stat", "t2"],
            ["region", "{wide}", "--axes", "1,2", "--stat", "t2"],
            ["simulate", "--scenario", "diag-n8-d1-h2", "--method", "perm-t2", "--reps", "100"],
        ],
    )
    def test_t2_refuses_a_structure(self, capsys, wide_csv, argv):
        argv = [a.format(wide=wide_csv) for a in argv]
        code, out, err = run(capsys, argv + ["--structure", "cs:0.5"])
        assert (code, out) == (1, "")
        assert "t2 takes no covariance structure" in err
        # unstructured is the default, and naming it changes no byte
        default = run(capsys, argv)
        assert default[0] == 0
        assert run(capsys, argv + ["--structure", "unstructured"]) == default

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["transmogrify"])
        assert code == 1


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "ml", "{wide}"],
        ["test-joint", "{wide}", "--mu-null", "0,0"],
        ["test-marginal", "{wide}", "--component", "1", "--mu1-null", "0"],
        ["ci", "{wide}", "--component", "1"],
        ["region", "{wide}", "--axes", "1,2"],
        ["simulate", "--scenario", "diag-n8-d1-h2", "--method", "perm-t2", "--reps", "100"],
        ["ingest-check", "{wide}"],
    ],
)
def test_alpha_outside_unit_interval_is_usage_error(capsys, wide_csv, argv, alpha):
    # every subcommand shares --alpha, and the parser rejects it before any work
    code, out, err = run(capsys, [a.format(wide=wide_csv) for a in argv] + ["--alpha", alpha])
    assert code == 1
    assert out == ""
    assert "--alpha" in err


class TestOutputHandling:
    def test_output_file_gets_trailing_newline(self, capsys, wide_csv, tmp_path):
        out_file = tmp_path / "fit.json"
        code, out, _ = run(
            capsys, ["fit", "ml", wide_csv, "--output", str(out_file)]
        )
        assert code == 0
        assert out == ""
        text = out_file.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["kind"] == "fit"
