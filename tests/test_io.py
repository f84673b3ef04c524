"""Tests for CSV ingestion, serialization, and back-transformation."""

import json
import math

import numpy as np
import pytest

from metaperm import (
    DataError,
    Dataset,
    PermutationPlan,
    RegionGrid,
    back_transform,
    fit_ml,
    ingest_diagnostic,
    ingest_nma,
    ingest_wide,
    joint_permutation_test,
    results_to_json,
    wald_inference,
    write_region_csv,
    write_wide,
)
from metaperm.io import SCHEMA_VERSION
from metaperm.simulate import CoverageReport

from conftest import make_mvn


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestWide:
    def test_round_trip_preserves_values(self, trivariate_missing, tmp_path):
        path = tmp_path / "wide.csv"
        write_wide(trivariate_missing, path)
        back = ingest_wide(path)
        assert back.n_studies == trivariate_missing.n_studies
        assert back.ids == trivariate_missing.ids
        observed = trivariate_missing.observed
        assert np.array_equal(back.observed, observed)
        pairs = observed[:, :, None] & observed[:, None, :]
        assert np.max(np.abs(trivariate_missing.Y - back.Y)[observed]) <= 1e-12
        assert np.max(np.abs(trivariate_missing.S - back.S)[pairs]) <= 1e-12

    def test_correlation_column(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "id,y1,se1,y2,se2,rho12\na,0.5,0.2,-0.1,0.3,0.7\n",
        )
        data = ingest_wide(path)
        S = data.S[0]
        assert S[0, 0] == pytest.approx(0.04, rel=1e-12)
        assert S[1, 1] == pytest.approx(0.09, rel=1e-12)
        assert S[0, 1] == pytest.approx(0.7 * 0.2 * 0.3, rel=1e-12)

    def test_variance_columns(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "id,y1,var1,y2,var2,rho12\na,0.5,0.04,-0.1,0.09,0.0\n",
        )
        S = ingest_wide(path).S[0]
        assert S[0, 0] == 0.04 and S[1, 1] == 0.09

    def test_blank_cells_mark_unobserved(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "id,y1,se1,y2,se2,rho12\na,0.5,0.2,,,\nb,0.1,0.3,0.2,0.4,0.1\n",
        )
        data = ingest_wide(path)
        assert data.observed[0].tolist() == [True, False]
        assert data.observed[1].tolist() == [True, True]

    def test_missing_rho_warns_and_defaults_to_zero(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "id,y1,se1,y2,se2\na,0.5,0.2,-0.1,0.3\n",
        )
        with pytest.warns(UserWarning, match="correlation"):
            data = ingest_wide(path)
        assert data.S[0, 0, 1] == 0.0

    def test_value_without_spread_rejected(self, tmp_path):
        path = write(
            tmp_path / "w.csv",
            "id,y1,se1,y2,se2,rho12\na,0.5,0.2,0.3,,\n",
        )
        with pytest.raises(DataError, match="both value"):
            ingest_wide(path)

    def test_exactly_one_scale_family(self, tmp_path):
        both = write(
            tmp_path / "both.csv",
            "id,y1,se1,var1\na,0.5,0.2,0.04\n",
        )
        with pytest.raises(DataError, match="exactly one"):
            ingest_wide(both)
        neither = write(tmp_path / "neither.csv", "id,y1\na,0.5\n")
        with pytest.raises(DataError, match="exactly one"):
            ingest_wide(neither)

    def test_malformed_inputs_rejected(self, tmp_path):
        cases = {
            "no_id.csv": ("y1,se1\n0.5,0.2\n", "'id'"),
            "no_y.csv": ("id,se1\na,0.2\n", "outcome columns"),
            "gap.csv": ("id,y1,se1,y3,se3\na,0.5,0.2,0.1,0.3\n", "consecutive"),
            "neg_se.csv": ("id,y1,se1\na,0.5,-0.2\n", "positive"),
            "bad_num.csv": ("id,y1,se1\na,oops,0.2\n", "cannot parse"),
            "bad_rho.csv": ("id,y1,se1,y2,se2,rho12\na,1,1,1,1,1.5\n", "-1, 1"),
            "empty_row.csv": ("id,y1,se1,y2,se2,rho12\na,,,,,\n", "no outcomes"),
            "header_only.csv": ("id,y1,se1\n", "no data rows"),
        }
        for name, (text, match) in cases.items():
            with pytest.raises(DataError, match=match):
                ingest_wide(write(tmp_path / name, text))


class TestIngestDiagnostic:
    def test_hand_computed_logits(self, tmp_path):
        path = write(
            tmp_path / "d.csv",
            "id,tp,fn,tn,fp\ns1,50,50,75,25\n",
        )
        data = ingest_diagnostic(path)
        y, S = data.Y[0], data.S[0]
        assert y[0] == pytest.approx(0.0, abs=1e-15)
        assert S[0, 0] == pytest.approx(1 / 50 + 1 / 50, rel=1e-12)
        assert y[1] == pytest.approx(math.log(25 / 75), rel=1e-12)
        assert S[1, 1] == pytest.approx(1 / 25 + 1 / 75, rel=1e-12)
        assert S[0, 1] == 0.0
        assert data.labels == ("sens", "fpr")
        assert data.scales == ("logit", "logit")

    def test_corner_continuity_correction(self, tmp_path):
        path = write(
            tmp_path / "d.csv",
            "id,tp,fn,tn,fp\nperfect,100,0,75,25\nplain,40,60,50,50\n",
        )
        with pytest.warns(UserWarning, match="applied to studies perfect$"):
            data = ingest_diagnostic(path)
        y, S = data.Y[0], data.S[0]
        assert y[0] == pytest.approx(math.log(100.5 / 0.5), rel=1e-12)
        assert S[0, 0] == pytest.approx(1 / 100.5 + 1 / 0.5, rel=1e-12)
        # the clean margin of the same study is untouched
        assert y[1] == pytest.approx(math.log(25 / 75), rel=1e-12)

    def test_validation(self, tmp_path):
        with pytest.raises(DataError, match="nonnegative"):
            ingest_diagnostic(write(tmp_path / "a.csv", "id,tp,fn,tn,fp\ns,-1,5,5,5\n"))
        with pytest.raises(DataError, match="nonnegative"):
            ingest_diagnostic(write(tmp_path / "b.csv", "id,tp,fn,tn,fp\ns,1.5,5,5,5\n"))
        with pytest.raises(DataError, match="'fp'"):
            ingest_diagnostic(write(tmp_path / "c.csv", "id,tp,fn,tn\ns,1,5,5\n"))


class TestIngestNma:
    def test_two_arm_log_odds_ratio(self, tmp_path):
        path = write(
            tmp_path / "n.csv",
            "study,treatment,events,total\n"
            "s1,control,10,100\n"
            "s1,drug,20,100\n",
        )
        data = ingest_nma(path, reference="control")
        assert data.labels == ("drug",)
        assert data.scales == ("log",)
        y, S = data.Y[0], data.S[0]
        assert y[0] == pytest.approx(math.log(20 / 80) - math.log(10 / 90), rel=1e-12)
        assert S[0, 0] == pytest.approx(
            1 / 20 + 1 / 80 + 1 / 10 + 1 / 90, rel=1e-12
        )

    def test_shared_reference_arm_covariance(self, tmp_path):
        path = write(
            tmp_path / "n.csv",
            "study,treatment,events,total\n"
            "s1,control,10,100\n"
            "s1,a,20,100\n"
            "s1,b,30,100\n",
        )
        data = ingest_nma(path, reference="control")
        S = data.S[0]
        ja, jb = data.labels.index("a"), data.labels.index("b")
        assert S[ja, jb] == pytest.approx(1 / 10 + 1 / 90, rel=1e-12)

    def test_pseudo_reference_for_missing_arm(self, tmp_path):
        path = write(
            tmp_path / "n.csv",
            "study,treatment,events,total\n"
            "s1,control,10,100\n"
            "s1,a,20,100\n"
            "s2,a,20,100\n"
            "s2,b,30,100\n",
        )
        data = ingest_nma(path, reference="control")
        y, S = data.Y[1], data.S[1]
        assert data.observed[1].all()
        ja, jb = data.labels.index("a"), data.labels.index("b")
        # fictitious reference arm: log odds zero, variance 2000
        assert y[ja] == pytest.approx(math.log(20 / 80), rel=1e-12)
        assert S[ja, jb] == pytest.approx(2000.0, rel=1e-12)
        assert S[ja, ja] == pytest.approx(1 / 20 + 1 / 80 + 2000.0, rel=1e-12)

    def test_zero_cell_correction_applies_to_all_arms(self, tmp_path):
        path = write(
            tmp_path / "n.csv",
            "study,treatment,events,total\n"
            "s1,control,0,100\n"
            "s1,drug,20,100\n",
        )
        data = ingest_nma(path, reference="control")
        y, S = data.Y[0], data.S[0]
        expected = math.log(20.5 / 80.5) - math.log(0.5 / 100.5)
        assert y[0] == pytest.approx(expected, rel=1e-12)
        assert S[0, 0] == pytest.approx(
            1 / 20.5 + 1 / 80.5 + 1 / 0.5 + 1 / 100.5, rel=1e-12
        )

    def test_disconnected_network_rejected(self, tmp_path):
        path = write(
            tmp_path / "n.csv",
            "study,treatment,events,total\n"
            "s1,a,10,100\ns1,b,20,100\n"
            "s2,c,10,100\ns2,d,20,100\n",
        )
        with pytest.raises(DataError, match="disconnected"):
            ingest_nma(path, reference="a")

    def test_validation(self, tmp_path):
        single = write(
            tmp_path / "single.csv",
            "study,treatment,events,total\ns1,a,10,100\ns2,a,5,50\ns2,b,6,60\n",
        )
        with pytest.raises(DataError, match="two arms"):
            ingest_nma(single, reference="a")
        dup = write(
            tmp_path / "dup.csv",
            "study,treatment,events,total\ns1,a,10,100\ns1,a,20,100\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            ingest_nma(dup, reference="a")
        absent = write(
            tmp_path / "absent.csv",
            "study,treatment,events,total\ns1,a,10,100\ns1,b,20,100\n",
        )
        with pytest.raises(DataError, match="reference"):
            ingest_nma(absent, reference="z")
        bad = write(
            tmp_path / "bad.csv",
            "study,treatment,events,total\ns1,a,10,5\ns1,b,2,50\n",
        )
        with pytest.raises(DataError, match="events"):
            ingest_nma(bad, reference="a")


class TestWriteRegionCsv:
    def test_layout_and_values(self, tmp_path):
        grid = RegionGrid(
            axis_components=(0, 1),
            axis_values=(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
            fixed_components={},
            statistic=np.array([[1.5, np.nan], [2.5, 0.5]]),
            threshold=np.full((2, 2), 2.0),
            p_value=np.array([[0.2, np.nan], [0.01, 0.9]]),
            accepted=np.array([[True, False], [False, True]]),
            failed=np.array([[False, True], [False, False]]),
            alpha=0.05,
            stat="moment",
        )
        path = tmp_path / "region.csv"
        write_region_csv(grid, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "mu1,mu2,statistic,threshold,accepted,p_value"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 2.0
        assert float(first[2]) == 1.5 and first[4] == "true"
        # row-major: second row advances the second axis
        second = lines[2].split(",")
        assert float(second[0]) == 0.0 and float(second[1]) == 3.0
        assert second[2] == "nan" and second[4] == "false"
        third = lines[3].split(",")
        assert float(third[0]) == 1.0 and float(third[1]) == 2.0


class TestBackTransform:
    def test_maps(self):
        assert back_transform(0.0, "logit") == pytest.approx(0.5, rel=1e-15)
        assert back_transform(math.log(3.0), "log") == pytest.approx(3.0, rel=1e-12)
        assert back_transform(1.23, "identity") == 1.23

    def test_elementwise_and_monotone(self):
        lo, hi = back_transform(np.array([-1.0, 1.0]), "logit")
        assert lo < 0.5 < hi
        out = back_transform(np.array([0.0, math.log(2.0)]), "log")
        np.testing.assert_allclose(out, [1.0, 2.0], rtol=1e-12)

    def test_scalar_in_float_out(self):
        assert isinstance(back_transform(0.3, "logit"), float)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            back_transform(0.3, "probit")


class TestResultsToJson:
    def test_fit_payload_and_determinism(self):
        data = make_mvn(3, 4)
        fit = fit_ml(data)
        a = results_to_json(fit)
        b = results_to_json(fit)
        assert a == b
        doc = json.loads(a)
        assert doc["kind"] == "fit"
        assert doc["schema_version"] == SCHEMA_VERSION
        assert len(doc["mu"]) == 2
        assert len(doc["sigma"]) == 2 and len(doc["sigma"][0]) == 2
        assert doc["converged"] is True

    def test_test_payload_handles_nan_null(self):
        data = make_mvn(3, 4)
        res = joint_permutation_test(
            data, [0.0, 0.0], plan=PermutationPlan.exhaustive(), stat="moment"
        )
        doc = json.loads(results_to_json(res))
        assert doc["kind"] == "test"
        assert doc["n_permutations"] == 16
        assert doc["mode"] == "exhaustive"
        assert 0.0 < doc["p_value"] <= 1.0

    def test_wald_and_coverage_payloads(self):
        data = make_mvn(3, 4)
        w = wald_inference(fit_ml(data))
        doc = json.loads(results_to_json(w))
        assert doc["kind"] == "wald" and len(doc["se"]) == 2
        rep = CoverageReport(
            scenario="s", method="perm-t2", target="joint", component=None,
            replications=100, coverage=0.95, monte_carlo_se=0.0218,
            non_convergence=0, alpha=0.05,
        )
        doc = json.loads(results_to_json(rep))
        assert doc["kind"] == "coverage" and doc["coverage"] == 0.95

    def test_coverage_header_row_and_payload(self):
        # the CSV header, the CSV row and the JSON keys follow the fields
        rep = CoverageReport(
            scenario="s", method="perm-t3", target="marginal", component=None,
            replications=100, coverage=0.95, monte_carlo_se=0.0218,
            non_convergence=2, alpha=0.05,
        )
        header = [
            "scenario", "method", "target", "component", "replications",
            "coverage", "monte_carlo_se", "non_convergence", "alpha",
        ]
        values = ["s", "perm-t3", "marginal", None, 100, 0.95, 0.0218, 2, 0.05]
        assert CoverageReport.header() == header
        assert rep.to_row() == ["" if v is None else v for v in values]
        assert json.loads(results_to_json(rep)) == {
            "kind": "coverage", "schema_version": SCHEMA_VERSION, **dict(zip(header, values))
        }

    def test_special_floats_and_arrays(self):
        doc = json.loads(
            results_to_json(
                {
                    "kind": "ad-hoc",
                    "x": float("nan"),
                    "up": float("inf"),
                    "down": float("-inf"),
                    "arr": np.array([1.0, np.nan]),
                    "n": np.int64(3),
                    "flag": np.bool_(True),
                }
            )
        )
        assert doc["x"] is None
        assert doc["up"] == "inf" and doc["down"] == "-inf"
        assert doc["arr"] == [1.0, None]
        assert doc["n"] == 3 and doc["flag"] is True

    def test_extra_keys_merged(self):
        doc = json.loads(results_to_json({"kind": "x"}, extra={"seed": 7}))
        assert doc["seed"] == 7

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            results_to_json(object())
