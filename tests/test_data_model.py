"""Dataset construction, validation, and CSV round-trip behavior."""

import numpy as np
import pytest

from causalkit import (
    Estimate,
    GroundTruth,
    IvDataset,
    ObservationalDataset,
    PanelDataset,
    format_number,
    load_csv,
    load_iv_csv,
    load_panel_csv,
    write_csv,
    write_ground_truth_csv,
    write_iv_csv,
    write_panel_csv,
)
from causalkit.data_model import _as_binary_vector
from causalkit.errors import (
    ConfigError,
    ParseError,
    SchemaError,
    ValidationError,
)


def small_dataset():
    x = np.array([[0.5, -1.0], [1.5, 2.0], [-0.25, 0.0], [3.0, 1.0]])
    a = np.array([1, 0, 1, 0])
    y = np.array([2.0, 1.0, 3.0, 0.5])
    return ObservationalDataset(x=x, a=a, y=y)


class TestObservationalDataset:
    def test_shapes_and_properties(self):
        ds = small_dataset()
        assert ds.n == 4
        assert ds.d == 2

    def test_1d_x_promoted_to_column(self):
        ds = ObservationalDataset(x=np.array([1.0, 2.0]), a=[1, 0], y=[0.0, 1.0])
        assert ds.x.shape == (2, 1)

    def test_zero_covariates_allowed(self):
        ds = ObservationalDataset(x=np.empty((3, 0)), a=[1, 0, 1], y=[1.0, 2.0, 3.0])
        assert ds.d == 0

    def test_non_binary_treatment_rejected(self):
        with pytest.raises(ValidationError, match="0/1"):
            ObservationalDataset(x=np.zeros((2, 1)), a=[1, 2], y=[0.0, 1.0])

    @pytest.mark.parametrize(
        "a, message",
        [
            ([[1, 0]], "a must be a 1-d vector, got shape (1, 2)"),
            ([1.0, np.nan], "a contains non-finite values"),
            ([1, 0.5], "a must contain only 0/1, found 0.5"),
        ],
    )
    def test_binary_vector_messages(self, a, message):
        with pytest.raises(ValidationError) as info:
            _as_binary_vector("a", a)
        assert str(info.value) == message

    def test_nan_outcome_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ObservationalDataset(x=np.zeros((2, 1)), a=[1, 0], y=[np.nan, 1.0])

    def test_infinite_covariate_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ObservationalDataset(x=np.array([[np.inf], [0.0]]), a=[1, 0], y=[0.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            ObservationalDataset(x=np.zeros((3, 1)), a=[1, 0], y=[0.0, 1.0])

    def test_arrays_are_immutable(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.y[0] = 99.0
        with pytest.raises(ValueError):
            ds.a[0] = 0
        with pytest.raises(ValueError):
            ds.x[0, 0] = 99.0


class TestGroundTruth:
    def test_true_ate_is_mean_contrast(self):
        t = GroundTruth(y1=[3.0, 5.0], y0=[1.0, 1.0])
        assert t.true_ate == 3.0

    def test_propensity_bounds_enforced(self):
        with pytest.raises(ValidationError, match="strictly"):
            GroundTruth(y1=[1.0], y0=[0.0], pi=[1.0])

    def test_consistency_check_passes_on_matching_data(self):
        ds = ObservationalDataset(x=np.zeros((2, 1)), a=[1, 0], y=[3.0, 1.0])
        t = GroundTruth(y1=[3.0, 9.0], y0=[7.0, 1.0])
        t.check_consistency(ds)

    def test_consistency_check_detects_mismatch(self):
        ds = ObservationalDataset(x=np.zeros((2, 1)), a=[1, 0], y=[3.0, 1.0])
        t = GroundTruth(y1=[4.0, 9.0], y0=[7.0, 1.0])
        with pytest.raises(ValidationError, match="do not match"):
            t.check_consistency(ds)

    def test_label_length_validated(self):
        with pytest.raises(ValidationError):
            GroundTruth(y1=[1.0, 2.0], y0=[0.0, 0.0], labels=("complier",))


class TestAteEstimate:
    def test_uncentered_eif_rejected(self):
        with pytest.raises(ValidationError, match="centered"):
            Estimate(psi_hat=1.0, method="test", n=2, eif=np.array([1.0, 2.0]))

    def test_level_is_checked_first_and_without_an_se(self):
        with pytest.raises(ConfigError, match="confidence level"):
            Estimate(psi_hat=1.0, method="test", n=2, se=None, level=2.0)
        # the level before psi_hat, the eif and the se
        with pytest.raises(ConfigError, match="confidence level"):
            Estimate(psi_hat=float("nan"), method="test", n=2, eif=np.array([1.0, 2.0]), se=-1.0, level=0.0)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValidationError):
            Estimate(psi_hat=float("nan"), method="test", n=2)


class TestPanelDataset:
    def test_duplicate_unit_period_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            PanelDataset(
                unit_id=[0, 0], period_id=[1, 1], a=[0, 1], y=[1.0, 2.0], group=[1, 1]
            )

    def test_group_must_be_constant_within_unit(self):
        with pytest.raises(ValidationError, match="varies within unit"):
            PanelDataset(
                unit_id=[0, 0], period_id=[0, 1], a=[0, 1], y=[1.0, 2.0], group=[0, 1]
            )

    def test_error_names_lowest_offending_unit(self):
        # units 9 and 4 both vary; unit 9's records come first, unit 2 is consistent
        with pytest.raises(ValidationError, match=r"^group flag varies within unit 4$"):
            PanelDataset(
                unit_id=[9, 9, 2, 4, 2, 4],
                period_id=[0, 1, 0, 0, 1, 1],
                a=[0, 0, 0, 0, 0, 0],
                y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                group=[1, 0, 1, 0, 1, 1],
            )


class TestFormatNumber:
    def test_integers_render_without_decimal(self):
        assert format_number(3) == "3"
        assert format_number(np.int64(-2)) == "-2"

    def test_floats_round_trip(self):
        for v in (0.1, 1 / 3, 1e-17, -2.5e300, 123456.789):
            assert float(format_number(v)) == v

    def test_integral_float_keeps_float_form(self):
        assert format_number(2.0) == "2.0"

    def test_non_finite_values_use_repr(self):
        assert format_number(float("nan")) == "nan"
        assert format_number(np.float64("inf")) == "inf"
        assert format_number(-np.inf) == "-inf"

    def test_integers_from_1e16_use_float_form(self):
        assert format_number(9_999_999_999_999_998) == "9999999999999998"
        assert format_number(np.int64(9_999_999_999_999_999)) == "1e+16"
        assert format_number(True) == "1"


class TestCsvRoundTrip:
    def test_observational_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = ObservationalDataset(
            x=rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-8, 8, size=(20, 3)),
            a=rng.integers(0, 2, size=20),
            y=rng.normal(size=20) * 1e6,
        )
        path = tmp_path / "d.csv"
        write_csv(ds, str(path))
        back = load_csv(
            str(path), {"treatment": "a", "outcome": "y", "covariates": ["x1", "x2", "x3"]}
        )
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.y, ds.y)

    def test_custom_schema_names(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.csv"
        write_csv(ds, str(path), {"treatment": "treat", "outcome": "resp", "covariates": ["u", "v"]})
        back = load_csv(str(path), {"treatment": "treat", "outcome": "resp", "covariates": "u,v"})
        assert np.array_equal(back.y, ds.y)

    def test_covariate_count_mismatch_raises(self, tmp_path):
        with pytest.raises(SchemaError, match="covariates"):
            write_csv(small_dataset(), str(tmp_path / "d.csv"), {"covariates": ["only_one"]})

    def test_iv_round_trip(self, tmp_path):
        ds = IvDataset(z=[1, 0, 1, 0], a=[1, 0, 0, 0], y=[2.0, 1.0, 0.5, -1.0])
        path = tmp_path / "iv.csv"
        write_iv_csv(ds, str(path))
        back = load_iv_csv(str(path), {"instrument": "z", "treatment": "a", "outcome": "y"})
        assert np.array_equal(back.z, ds.z)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.y, ds.y)
        assert back.x is None

    def test_panel_round_trip(self, tmp_path):
        panel = PanelDataset(
            unit_id=[0, 0, 1, 1],
            period_id=[0, 1, 0, 1],
            a=[0, 1, 0, 0],
            y=[0.25, 2.5, 1.0, 1.125],
            group=[1, 1, 0, 0],
        )
        path = tmp_path / "p.csv"
        write_panel_csv(panel, str(path))
        back = load_panel_csv(
            str(path),
            {"unit": "unit", "period": "period", "group": "group", "treatment": "a", "outcome": "y"},
        )
        assert np.array_equal(back.unit_id, panel.unit_id)
        assert np.array_equal(back.y, panel.y)

    def test_ground_truth_sidecar_with_labels(self, tmp_path):
        t = GroundTruth(y1=[1.0, 2.0], y0=[0.0, 0.5], labels=("complier", "never"))
        path = tmp_path / "t.csv"
        write_ground_truth_csv(t, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == "y1,y0,type"
        assert "complier" in text


class TestLoaders:
    def test_missing_column_names_the_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2.0\n")
        with pytest.raises(SchemaError, match="'x9'"):
            load_csv(str(path), {"treatment": "a", "outcome": "y", "covariates": ["x9"]})

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2.0\n0,oops\n")
        with pytest.raises(ParseError, match="row 2, column 'y'"):
            load_csv(str(path), {"treatment": "a", "outcome": "y"})

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_treatment_in_file(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,y\n0,1.0\n{cell},1.0\n")
        message = f"^row 2, column 'a': treatment must be 0 or 1, found {cell}$"
        with pytest.raises(ValidationError, match=message):
            load_csv(str(path), {"treatment": "a", "outcome": "y"})

    def test_non_binary_treatment_in_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n2,1.0\n")
        with pytest.raises(ValidationError, match="0 or 1"):
            load_csv(str(path), {"treatment": "a", "outcome": "y"})

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_csv(str(path), {"treatment": "a", "outcome": "y"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_csv(str(tmp_path / "nope.csv"), {"treatment": "a", "outcome": "y"})

    def test_panel_requires_integer_ids(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,period,group,a,y\n0.5,0,1,0,1.0\n")
        with pytest.raises(ValidationError, match="integers"):
            load_panel_csv(
                str(path),
                {"unit": "unit", "period": "period", "group": "group", "treatment": "a", "outcome": "y"},
            )

