from datetime import date

import numpy as np
import pytest

from wheatyield.domain import (
    Bound,
    CropRecord,
    OrdinalSpec,
    SoilRecord,
    UnknownCategoryError,
    WEATHER_DTYPE,
    ValidationRanges,
    Weather,
    validate,
    weather_rejections,
)


def make_soil(**kwargs) -> SoilRecord:
    base = dict(
        zone_id="Z1", test_year=2015, p=25.0, k=180.0, mg=60.0, ph=6.8,
        soil_type="medium", stone_content="low", organic_matter="moderate",
        caco3="calc",
    )
    base.update(kwargs)
    return SoilRecord(**base)


def weather_of(rows) -> Weather:
    """The Weather of (zone id, day ordinal, t_min, t_max, precip, solar,
    humidity) rows, zone ids coded by first appearance."""
    codes: dict[str, int] = {}
    coded = [(codes.setdefault(zone_id, len(codes)), *rest) for zone_id, *rest in rows]
    return Weather(tuple(codes), np.array(coded, dtype=WEATHER_DTYPE))


def named_rows(weather: Weather) -> list[tuple]:
    """``weather``'s rows as tuples, each with its zone id in place of its code."""
    return [(weather.zones[zone], *rest) for zone, *rest in weather.table.tolist()]


def make_weather(**kwargs) -> np.ndarray:
    """A one-row weather table."""
    base = dict(
        zone=0, day=date(2017, 3, 2).toordinal(), t_min=1.5, t_max=9.0,
        precip=4.2, solar=8.1, humidity=82.0,
    )
    base.update(kwargs)
    return np.array([tuple(base[name] for name in WEATHER_DTYPE.names)], dtype=WEATHER_DTYPE)


def validate_weather(table: np.ndarray):
    return weather_rejections(table).get(0)


def make_crop(**kwargs) -> CropRecord:
    base = dict(
        zone_id="Z1", year=2018, sowing_date=date(2017, 10, 1),
        harvest_date=date(2018, 8, 1), yield_t_ha=9.36,
    )
    base.update(kwargs)
    return CropRecord(**base)


class TestEncodeOrdinal:
    def test_first_element(self):
        assert OrdinalSpec().encode("stone_content", "stoneless") == 0

    def test_last_element(self):
        assert OrdinalSpec().encode("soil_type", "deep fertile") == 3

    def test_rank_lookup(self):
        assert OrdinalSpec().encode("caco3", "calc") == 2

    def test_unknown_label_names_field_and_label(self):
        with pytest.raises(UnknownCategoryError) as err:
            OrdinalSpec().encode("soil_type", "granite")
        assert "soil_type" in str(err.value)
        assert "granite" in str(err.value)

    def test_unknown_field(self):
        with pytest.raises(UnknownCategoryError):
            OrdinalSpec().encode("texture", "sandy")

    def test_bijection_round_trip(self):
        spec = OrdinalSpec()
        for name, order in spec.orders.items():
            codes = [spec.encode(name, label) for label in order]
            assert codes == list(range(len(order)))
            assert [spec.labels(name)[c] for c in codes] == list(order)

    def test_custom_order_override(self):
        spec = OrdinalSpec(orders={"soil_type": ("deep fertile", "shallow")})
        assert spec.encode("soil_type", "deep fertile") == 0


class TestValidate:
    def test_plausible_crop_yield_ok(self):
        assert validate(make_crop(yield_t_ha=9.36)) is None

    def test_humidity_above_100_rejected(self):
        bad = validate_weather(make_weather(humidity=101.0))
        assert bad is not None
        assert bad.field_name == "humidity"
        assert bad.value == 101.0
        assert "100" in bad.reason

    def test_ph_above_14_rejected(self):
        bad = validate(make_soil(ph=15.2))
        assert bad is not None
        assert bad.field_name == "ph"
        assert "14" in bad.reason

    def test_negative_nutrient_rejected(self):
        bad = validate(make_soil(p=-0.5))
        assert bad is not None and bad.field_name == "p"

    def test_unknown_category_rejected_not_raised(self):
        bad = validate(make_soil(soil_type="granite"))
        assert bad is not None and bad.field_name == "soil_type"

    def test_tmin_above_tmax_rejected(self):
        bad = validate_weather(make_weather(t_min=12.0, t_max=8.0))
        assert bad is not None and bad.field_name == "t_min"

    def test_sowing_after_harvest_rejected(self):
        bad = validate(make_crop(sowing_date=date(2018, 9, 1)))
        assert bad is not None and bad.field_name == "sowing_date"

    def test_yield_outside_default_window(self):
        assert validate(make_crop(yield_t_ha=0.5)) is not None
        assert validate(make_crop(yield_t_ha=19.0)) is not None

    def test_yield_window_configurable(self):
        ranges = ValidationRanges(yield_t_ha=Bound(lo=0.1, hi=30.0))
        assert validate(make_crop(yield_t_ha=19.0), ranges) is None

    def test_nan_rejected(self):
        bad = validate_weather(make_weather(precip=float("nan")))
        assert bad is not None and bad.field_name == "precip"

    def test_valid_records_pass(self):
        assert validate(make_soil()) is None
        assert weather_rejections(make_weather()) == {}
        assert validate(make_crop()) is None


class TestWeatherRejections:
    def test_first_violated_field_wins(self):
        bad = validate_weather(make_weather(t_min=-70.0, humidity=120.0))
        assert str(bad) == "t_min=-70.0: below lower bound -60.0"

    def test_bounds_before_tmin_tmax_order(self):
        bad = validate_weather(make_weather(t_min=12.0, t_max=8.0, solar=float("inf")))
        assert str(bad) == "solar=inf: not finite"
        bad = validate_weather(make_weather(t_min=12.0, t_max=8.0))
        assert str(bad) == "t_min=12.0: exceeds t_max 8.0"

    def test_rows_keyed_by_index(self):
        table = np.concatenate([make_weather(), make_weather(precip=-1.0), make_weather()])
        assert list(weather_rejections(table)) == [1]

    def test_custom_ranges(self):
        ranges = ValidationRanges(humidity=Bound(lo=0.0, hi=120.0))
        assert weather_rejections(make_weather(humidity=110.0), ranges) == {}
