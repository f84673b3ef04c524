"""End-to-end tests for the command-line interface."""

import csv
import json

import pytest

import metaperm.cli
from metaperm import (
    NonConvergenceError,
    PermutationPlan,
    confidence_region,
    ingest_wide,
    write_region_csv,
    write_wide,
)
from metaperm.cli import main

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
        "extra, expected",
        [
            ([], None),
            (["--perm", "2400"], ("random", 2400, 11)),
            (["--perm", "300"], ("random", 300, 11)),
            (["--perm", "exhaustive"], ("exhaustive", None, None)),
        ],
    )
    def test_explicit_perm_reaches_experiment(self, capsys, monkeypatch, extra, expected):
        # an explicit --perm equal to the default draw count used to be
        # dropped in favour of the scenario's own plan
        seen = {}
        real = metaperm.cli.coverage_experiment

        def spy(scenario, method, **kwargs):
            seen["plan"] = kwargs["plan"]
            return real(scenario, method, **kwargs)

        monkeypatch.setattr(metaperm.cli, "coverage_experiment", spy)
        code, _, _ = run(
            capsys,
            ["simulate", "--scenario", "gauss2-s1", "--method", "t2",
             "--reps", "100", "--seed", "11", *extra],
        )
        assert code == 0
        plan = seen["plan"]
        if expected is None:
            assert plan is None
        else:
            assert (plan.mode, plan.n_draws, plan.seed) == expected

    def test_unknown_scenario(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--scenario", "nope", "--method", "t2"]
        )
        assert code == 1
        assert "unknown scenario" in err


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

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["transmogrify"])
        assert code == 1


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

    def test_threads_flag_accepted(self, capsys, wide_csv):
        code, _, _ = run(capsys, ["fit", "ml", wide_csv, "--threads", "4"])
        assert code == 0
