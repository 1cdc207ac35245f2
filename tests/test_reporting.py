import xml.etree.ElementTree as ET

from wheatyield.evalstat import Report, ReportRow
from wheatyield.reporting import (
    compare_csv,
    compare_text,
    full_text,
    mae_chart_svg,
    report_csv,
    report_text,
)


def sample_report() -> Report:
    rows = [
        ReportRow("decision_tree", 2.25, 3.41, 2.10, 0.017, 2.26, 0.012, -4.0, 0.9),
        ReportRow("gradient_boosting", 1.63, 1.48, -0.96, 0.831, -0.52, 0.700, 2.1, 0.027),
    ]
    return Report(rows=rows, train_years=(2013, 2014, 2015, 2016, 2017),
                  test_year=2018, seed=0, config_digest="abc123", n_train=100, n_test=30)


def test_report_csv_schema_and_values():
    text = report_csv(sample_report())
    lines = text.splitlines()
    assert lines[0] == "model,mae_soil,mae_sw,z_soil,p_soil,z_sw,p_sw,t_paired,p_paired"
    assert lines[1].startswith("decision_tree,2.25,3.41,2.1,0.017,")
    assert len(lines) == 3


def test_report_csv_handles_missing_mode():
    report = Report(rows=[ReportRow("svr", mae_soil=1.5)], train_years=(2016,),
                    test_year=2018, seed=1, config_digest="d")
    lines = report_csv(report).splitlines()
    assert lines[1] == "svr,1.5,,,,,,,"


def test_report_text_contains_metadata_and_alignment():
    text = report_text(sample_report())
    assert "# train years: 2013, 2014, 2015, 2016, 2017" in text
    assert "# test year:   2018" in text
    assert "# config:      abc123" in text
    header, underline = text.split("\n\n")[1].splitlines()[:2]
    assert header.startswith("model") and set(underline) <= {"-", " "}


def test_compare_outputs():
    report = sample_report()
    assert compare_csv(report).splitlines()[0] == "model,mae_soil,mae_sw,p_paired"
    text = compare_text(report)
    assert "paired comparison" in text
    assert "soil_weather" in text  # gradient boosting improved
    lines = [l for l in text.splitlines() if l.startswith("decision_tree")]
    assert "soil" in lines[0]


def test_full_text_ends_with_the_paired_section_only_when_both_modes_ran():
    report = sample_report()
    assert full_text(report) == report_text(report).rstrip("\n") + "\n\n" + compare_text(report)
    soil_only = Report(rows=[ReportRow("svr", mae_soil=1.5), ReportRow("decision_tree", 2.0)],
                       train_years=(2016,), test_year=2018, seed=1, config_digest="d")
    assert full_text(soil_only) == report_text(soil_only)


def test_svg_is_well_formed_and_deterministic():
    report = sample_report()
    svg = mae_chart_svg(report)
    assert svg == mae_chart_svg(report)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # background + 2 bars per model + 2 legend chips
    assert len(rects) == 1 + 4 + 2
    labels = {el.text for el in root.iter() if el.tag.endswith("text")}
    assert "decision_tree" in labels and "gradient_boosting" in labels
