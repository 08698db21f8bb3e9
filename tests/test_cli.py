import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import oracles
import tworelay.cli as cli
from tworelay.scaling import GapCertificate
from tworelay.model import ScenarioCase


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


class TestBounds:
    def test_case_a_csv(self, capsys):
        code, out = run_cli(
            ["bounds", "--case", "a", "--px", "15", "--pj", "15", "--c2", "1"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "schema"
        assert all(r["schema"] == "bounds.v1" for r in rows)
        by_label = {(r["row_type"], r["label"]): r for r in rows}
        cut = float(by_label[("bound", "cutset_min")]["rate_bits"])
        ach = float(by_label[("achievable", "case_a_eq")]["rate_bits"])
        assert cut == pytest.approx(1.4770981551934377, rel=1e-12)
        assert ach == pytest.approx(0.9125371587496606, rel=1e-12)

    def test_case_c_includes_modulo_and_variants(self, capsys):
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "15", "--pj", "15",
             "--c1", "1", "--c2", "1"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        labels = {(r["row_type"], r["label"]) for r in rows}
        assert ("bound", "modulo") in labels
        assert ("achievable", "case_c_prop") in labels
        assert ("achievable", "case_c_derived") in labels
        assert ("achievable", "local_decode") in labels
        modulo = next(r for r in rows if r["label"] == "modulo")
        assert float(modulo["rate_bits"]) == pytest.approx(2.7735477925903207, rel=1e-12)

    def test_invalid_parameters_exit_2(self, capsys):
        code, _ = run_cli(
            ["bounds", "--case", "a", "--px", "-1", "--pj", "15", "--c2", "1"], capsys
        )
        assert code == 2

    def test_unlimited_interferer_is_an_accepted_limit(self, capsys):
        # p_j = inf drowns every interfered observation but leaves each rate
        # and bound finite, so it is accepted rather than rejected
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "100", "--pj", "inf", "--c1", "1", "--c2", "2"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(math.isfinite(float(r["rate_bits"])) for r in rows)
        assert float(next(r for r in rows if r["label"] == "binding")["rate_bits"]) == 1.0

    def test_tiny_signal_against_an_unlimited_interferer(self, capsys):
        # alpha**2 underflows to 0 below p_x ~ 1e-162; the relay-2 distortion
        # takes the p_j -> inf limit instead of 0 * inf = NaN
        code, out = run_cli(
            ["bounds", "--case", "a", "--px", "1e-200", "--pj", "inf", "--c2", "1"], capsys)
        assert code == 0
        assert out.splitlines()[-2:] == [
            "achievable,case_a_eq,0.0,1e-200,0.0,2.5e-201,1.25e-200,bounds.v1",
            "best,case_a_eq,0.0,1e-200,0.0,2.5e-201,1.25e-200,bounds.v1",
        ]

    @pytest.mark.parametrize("case, c1", [("a", "inf"), ("b", "3")])
    def test_relay2_distortion_keeps_a_tiny_alpha(self, case, c1, capsys):
        # alpha**2 underflows to 0, yet alpha**2 * p_j is about 1e-100 > p_x:
        # p_d2 takes p_x * 2**(-2*c2), not the lost term 0
        links = ["--c2", "1"] if case == "a" else ["--c1", c1, "--c2", "1"]
        code, out = run_cli(
            ["bounds", "--case", case, "--px", "1e-200", "--pj", "1e300", *links], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        lattice = [r for r in rows if r["label"] == f"case_{case}_eq"]
        assert [r["row_type"] for r in lattice] == ["achievable", "best"]
        expected = oracles.case_b_allocation(1e-200, 1e300, float(c1), 1)
        fields = ("alpha", "p_d1", "p_d2", "p_neq")
        for row in lattice:
            assert float(row["rate_bits"]) == 0.0
            # no absolute floor: every field is below 1e-13
            assert all(oracles.within(float(row[f]), v, abs_floor=0.0)
                       for f, v in zip(fields, expected))
        if case == "a":
            assert out.splitlines()[-1] == "best,case_a_eq,0.0,1e-200,0.0,2.5e-201,1.25e-200,bounds.v1"

    def test_subnormal_links_give_a_zero_rate(self, capsys):
        # p_x/p_neq underflows to 0, where log2 has no value: the clamped rate is 0
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "1e-20", "--pj", "inf",
             "--c1", "5e-324", "--c2", "5e-324"], capsys)
        assert code == 0
        assert out.splitlines()[-4:] == [
            "achievable,case_c_prop,0.0,1e-20,2.024022533073106e+303,"
            "2.024022533073106e+303,4.048045066146212e+303,bounds.v1",
            "achievable,case_c_derived,0.0,1e-20,2.024022533073106e+303,"
            "2.024022533073106e+303,4.048045066146212e+303,bounds.v1",
            "achievable,local_decode,0.0,,,,,bounds.v1",
            "best,case_c_prop,0.0,1e-20,2.024022533073106e+303,"
            "2.024022533073106e+303,4.048045066146212e+303,bounds.v1",
        ]

    def test_huge_signal_alpha_takes_its_limit(self, capsys):
        # 2*p_x and 4*p_x + 2 both overflow; alpha = 2*p_x/(4*p_x+2) tends to 1/2
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "1e308", "--pj", "15", "--c1", "1", "--c2", "1"],
            capsys)
        assert code == 0
        assert out.splitlines()[-4:-2] == [
            "achievable,case_c_prop,0.792481250360578,0.5,3.333333333333333e+307,"
            "1.1111111111111111e+307,4.4444444444444443e+307,bounds.v1",
            "achievable,case_c_derived,0.5849625007211562,0.5,3.333333333333333e+307,"
            "1.1111111111111111e+307,4.4444444444444443e+307,bounds.v1",
        ]

    def test_alpha_limit_where_only_the_denominator_overflows(self, capsys):
        # 4*p_x + 2 overflows but 2*p_x does not; alpha rounds to its limit 1/2
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "5e307", "--pj", "15", "--c1", "1", "--c2", "1"],
            capsys)
        assert code == 0
        assert out.splitlines()[-4:-2] == [
            "achievable,case_c_prop,0.792481250360578,0.5,1.6666666666666666e+307,"
            "5.5555555555555553e+306,2.2222222222222221e+307,bounds.v1",
            "achievable,case_c_derived,0.5849625007211562,0.5,1.6666666666666666e+307,"
            "5.5555555555555553e+306,2.2222222222222221e+307,bounds.v1",
        ]
        _, rows = parse_csv(out)
        expected = oracles.case_c_allocation(5e307, 15, 1, 1)
        fields = ("alpha", "p_d1", "p_d2", "p_neq")
        assert all(oracles.within(float(rows[7][f]), v) for f, v in zip(fields, expected))

    def test_full_cooperation_term_past_the_doubling_overflow(self, capsys):
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "1e308", "--pj", "15", "--c1", "1", "--c2", "1"],
            capsys)
        assert code == 0
        assert out.splitlines()[4] == 'bound,"i(x;y1,y2)",512.0769266126538,,,,,bounds.v1'
        assert oracles.within(512.0769266126538, oracles.full_cooperation(1e308))

    @pytest.mark.parametrize("p_j", ["1e300", "1e308"])
    def test_side_information_keeps_a_tiny_alpha(self, p_j, capsys):
        # alpha**2 underflows to 0 (and at 1e308 4*p_j overflows), yet
        # alpha**2 * 4*p_j is about 4e-92 > p_x: p_d2 takes p_x, not 0 or NaN
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "1e-200", "--pj", p_j, "--c1", "1", "--c2", "1"],
            capsys)
        assert code == 0
        _, rows = parse_csv(out)
        expected = oracles.case_c_allocation(1e-200, float(p_j), 1, 1)
        assert float(expected[2]) == pytest.approx(3.33e-201, rel=1e-3)
        fields = ("alpha", "p_d1", "p_d2", "p_neq")
        for row in rows[7:9] + rows[-1:]:
            assert all(oracles.within(float(row[f]), v, abs_floor=0.0)
                       for f, v in zip(fields, expected))

    def test_zero_rate_binned_link_has_unlimited_distortion(self, capsys):
        # c2 = 0 and the side-information power underflows to 0: the binned
        # distortion takes the zero-rate limit inf of p_x > 0, not 0/0 = 0
        code, out = run_cli(
            ["bounds", "--case", "c", "--px", "1e-200", "--pj", "0", "--c1", "inf", "--c2", "0"],
            capsys)
        assert code == 0
        _, rows = parse_csv(out)
        expected = oracles.case_c_allocation(1e-200, 0, math.inf, 0)
        fields = ("alpha", "p_d1", "p_d2", "p_neq")
        for row in rows[6:8]:
            assert float(row["rate_bits"]) == 0.0
            assert [float(row[f]) for f in fields[2:]] == [math.inf, math.inf] == list(expected[2:])
            assert all(oracles.within(float(row[f]), v, abs_floor=0.0)
                       for f, v in zip(fields[:2], expected[:2]))
        assert out.splitlines()[-1] == "best,local_decode,7.213475204444817e-201,,,,,bounds.v1"

    @pytest.mark.parametrize("case", ["a", "b", "c"])
    @pytest.mark.parametrize("p_x, p_j", [(3e-161, 1e155), (1e-160, 1e150)])
    def test_subnormal_alpha_squared_keeps_its_digits(self, case, p_x, p_j, capsys):
        # alpha**2 is subnormal here; alpha scales p_j twice instead
        links = ["--c2", "1"] if case == "a" else ["--c1", "1", "--c2", "1"]
        code, out = run_cli(
            ["bounds", "--case", case, "--px", repr(p_x), "--pj", repr(p_j), *links], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        if case == "c":
            expected = oracles.case_c_allocation(p_x, p_j, 1, 1)
        else:
            expected = oracles.case_b_allocation(p_x, p_j, math.inf if case == "a" else 1, 1)
        # the best row copies the lattice row where the lattice scheme wins (not in Case B)
        lattice = [r for r in rows if r["row_type"] in ("achievable", "best") and r["alpha"]]
        assert len(lattice) == (1 if case == "b" else 2)
        for row in lattice:
            assert float(row["rate_bits"]) == 0.0
            assert all(oracles.within(float(row[f]), v, abs_floor=0.0)
                       for f, v in zip(("alpha", "p_d1", "p_d2", "p_neq"), expected))

    @pytest.mark.parametrize("p_x, p_j, c2", [
        (3e-161, 15, 1e-3), (1e-162, 0, 1e-3), (1e-159, 1, 0.5), (1e-160, 1e8, 1)])
    def test_subnormal_side_information_keeps_its_digits(self, p_x, p_j, c2, capsys):
        # s = alpha**2*(4*p_j + 2) is subnormal; the binned p_d2 = s/(2**(2*c2) - 1)
        # is rounded once, to the nearest subnormal, not carried up from s
        code, out = run_cli(["bounds", "--case", "c", "--px", repr(p_x), "--pj", repr(p_j),
                             "--c1", "inf", "--c2", repr(c2)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        expected = oracles.case_c_allocation(p_x, p_j, math.inf, c2)
        lattice = [r for r in rows if r["row_type"] == "achievable" and r["alpha"]]
        assert len(lattice) == 2
        for row in lattice:
            assert float(row["rate_bits"]) == 0.0
            assert abs(mpmath.mpf(float(row["p_d2"])) - expected[2]) <= mpmath.mpf(2) ** -1075
            assert all(oracles.within(float(row[f]), v, abs_floor=0.0)
                       for f, v in zip(("alpha", "p_d1", "p_neq"), expected[:2] + expected[3:]))

    @pytest.mark.parametrize("c1", ["1", "3"])
    def test_subnormal_plain_distortion_keeps_its_digits(self, c1, capsys):
        # p_x and p_d1 = p_x/(2**(2*c1) - 1) are subnormal; the binned
        # p_d2 = p_d1/(2**(2*c2) - 1) is formed from p_x, rounded once
        code, out = run_cli(["bounds", "--case", "c", "--px", "1e-320", "--pj", "0",
                             "--c1", c1, "--c2", "1e-3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        expected = oracles.case_c_allocation(1e-320, 0, float(c1), 1e-3)
        lattice = [r for r in rows if r["row_type"] == "achievable" and r["alpha"]]
        assert len(lattice) == 2
        for row in lattice:
            for field, value in zip(("p_d1", "p_d2"), expected[1:3]):
                assert abs(mpmath.mpf(float(row[field])) - value) <= mpmath.mpf(2) ** -1075

    def test_json_embeds_manifest(self, capsys):
        code, out = run_cli(
            ["bounds", "--case", "b", "--px", "1e2", "--pj", "1", "--c1", "2",
             "--c2", "1", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["command"] == "bounds"
        assert doc["manifest"]["version"]
        assert doc["best"]["rate"] > 0
        assert doc["bounds"]["modulo_bound"] is None

    def test_scientific_notation_accepted(self, capsys):
        code, out = run_cli(
            ["bounds", "--case", "a", "--px", "1e8", "--pj", "1E4", "--c2", "2.5e0"],
            capsys,
        )
        assert code == 0


class TestSweep:
    def test_empty_range_keeps_header(self, capsys):
        code, out = run_cli(
            ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", ""],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0].startswith("sum_capacity,")
        assert len(out.splitlines()) == 1

    def test_case_c_columns(self, capsys):
        code, out = run_cli(
            ["sweep", "--case", "c", "--px", "1e6", "--pj", "1e2",
             "--sum-range", "0:4:2", "--split-samples", "41"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert float(row["best_rate"]) <= float(row["modulo"]) + 1e-9


class TestRegion:
    def test_quadrant_for_zero_rate(self, capsys):
        code, out = run_cli(["region", "--rate", "0", "--px", "10", "--pj", "5"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        vertices = [r for r in rows if r["row_type"] == "vertex"]
        assert len(vertices) == 1
        assert float(vertices[0]["c1"]) == 0.0 and float(vertices[0]["c2"]) == 0.0

    def test_svg_matches_csv_vertices(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TWORELAY_OUTDIR", str(tmp_path))
        assert cli.main(["region", "--rate", "2", "--px", "15", "--pj", "15",
                         "--out", "region.csv"]) == 0
        assert cli.main(["region", "--rate", "2", "--px", "15", "--pj", "15",
                         "--format", "svg", "--out", "region.svg"]) == 0
        _, rows = parse_csv((tmp_path / "region.csv").read_text())
        csv_vertices = [
            (float(r["c1"]), float(r["c2"])) for r in rows if r["row_type"] == "vertex"
        ]
        svg = (tmp_path / "region.svg").read_text()
        boundary = re.search(r'stroke="crimson" points="([^"]+)"', svg).group(1)
        svg_points = [tuple(map(float, p.split(","))) for p in boundary.split()]
        for vertex in csv_vertices:
            assert any(
                math.isclose(vertex[0], px) and math.isclose(vertex[1], py)
                for px, py in svg_points
            )

    def test_manifest_sidecar(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TWORELAY_OUTDIR", str(tmp_path))
        assert cli.main(["region", "--rate", "1", "--px", "4", "--pj", "2",
                         "--out", "r.csv"]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["command"] == "region"
        assert manifest["outputs"] == [str(tmp_path / "r.csv")]


class TestGaps:
    def test_small_grid_passes(self, capsys):
        code, out = run_cli(["gaps", "--case", "b", "--grid", "1:3:1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(cert["satisfied"] for cert in doc["certificates"])

    def test_huge_powers_certify(self, capsys):
        # the Case C cut-set threshold (1+p_x)^2/p_x no longer overflows at p_x = 1e155
        code, out = run_cli(["gaps", "--case", "c", "--grid", "154:155:1"], capsys)
        assert code == 0
        certificates = {c["regime"]: c for c in json.loads(out)["certificates"]}
        assert certificates["cutset"]["max_gap"] == 0.8612330122355729
        assert certificates["modulo"]["max_gap"] == 2.350404923888391
        assert all(c["satisfied"] and c["grid_points"] == 1 for c in certificates.values())

    def test_violation_exits_3(self, capsys, monkeypatch):
        bogus = GapCertificate(
            case=ScenarioCase.CASE_B, regime="standard", grid_points=1, worst_point=(10.0, 10.0),
            max_gap=2.0, bound_used="cut-set", claimed_bound=1.29,
        )
        monkeypatch.setattr(cli, "certify_gaps", lambda *a, **k: (bogus,))
        code, out = run_cli(["gaps", "--case", "b"], capsys)
        assert code == 3
        assert not json.loads(out)["certificates"][0]["satisfied"]


class TestScaling:
    def test_case_a_prelog_near_half(self, capsys):
        code, out = run_cli(
            ["scaling", "--case", "a", "--coupling", "pj=px", "--exponents", "10:40"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["prelog"] == pytest.approx(0.5, abs=0.02)
        assert len(doc["rate_samples"]) == 31

    def test_reduced_capacity_drops_prelog(self, capsys):
        code, out = run_cli(
            ["scaling", "--case", "c", "--exponents", "10:40",
             "--capacity-scale", "0.8"], capsys
        )
        assert code == 0
        assert json.loads(out)["prelog"] < 0.45


class TestSimulateAndCover:
    def test_simulate_seeded(self, capsys):
        args = ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2",
                "--c2", "1", "--samples", "100000", "--seed", "7"]
        code, out = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        ratio = doc["stats"]["empirical_var_neq"] / doc["stats"]["analytic_var_neq"]
        assert 0.98 <= ratio <= 1.02
        assert doc["manifest"]["seed"] == 7

    def test_correlation_does_not_depend_on_the_scale_of_p_x(self, capsys):
        # var_x * var_v underflows (1e-200), is subnormal (1e-160) or overflows
        # (1e154 on) where each variance is a normal float
        def correlation(p_x):
            args = ["simulate", "--case", "b", "--px", p_x, "--pj", "1", "--c1", "1",
                    "--c2", "1", "--samples", "1000", "--seed", "1"]
            code, out = run_cli(args, capsys)
            assert code == 0
            return json.loads(out)["stats"]["x_v_correlation"]

        reference = correlation("1e150")
        for p_x in ("1e-200", "1e-160", "1e154", "1e160", "1e300"):
            assert correlation(p_x) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_simulate_generates_and_records_seed(self, capsys):
        args = ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2",
                "--c2", "1", "--samples", "1000"]
        code, out = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["seed"] is not None
        assert doc["stats"]["seed"] == doc["manifest"]["seed"]

    def test_cover_runs(self, capsys):
        code, out = run_cli(
            ["cover", "--rate", "0.5", "--trials", "40", "--seed", "3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["trials"] == 40
        assert 0.0 <= doc["result"]["coverage"] <= 1.0


class TestReproducibility:
    def test_deterministic_commands_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWORELAY_OUTDIR", str(tmp_path))
        args = ["bounds", "--case", "c", "--px", "1e8", "--pj", "1e4",
                "--c1", "3", "--c2", "2"]
        assert cli.main(args + ["--out", "one.csv"]) == 0
        assert cli.main(args + ["--out", "two.csv"]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_seeded_simulation_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWORELAY_OUTDIR", str(tmp_path))
        args = ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2",
                "--c2", "1", "--samples", "20000", "--seed", "11",
                "--out", "run.json"]
        assert cli.main(args) == 0
        first = (tmp_path / "run.json").read_bytes()
        assert cli.main(args) == 0
        assert (tmp_path / "run.json").read_bytes() == first

    def test_csv_uses_crlf(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWORELAY_OUTDIR", str(tmp_path))
        assert cli.main(["region", "--rate", "1", "--px", "4", "--pj", "2",
                         "--out", "r.csv"]) == 0
        assert b"\r\n" in (tmp_path / "r.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--case", "b", "--px", "-1", "--pj", "1", "--sum-range", "0:1:1"],
        ["sweep", "--case", "c", "--px", "10", "--pj", "nan", "--sum-range", "0:1:1"],
        ["sweep", "--case", "c", "--px", "10", "--pj", "1", "--split-samples", "1"],
        ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:1:0"],
        ["scaling", "--case", "b", "--capacity-scale", "-1"],
        ["bounds", "--case", "a", "--px", "15", "--pj", "15", "--c1", "3", "--c2", "1"],
        ["bounds", "--case", "c", "--px", "inf", "--pj", "10", "--c1", "1", "--c2", "1"],
        ["sweep", "--case", "c", "--px", "inf", "--pj", "10", "--sum-range", "0:2:1"],
        ["region", "--rate", "2", "--px", "inf", "--pj", "10"],
        ["region", "--rate", "nan", "--px", "10", "--pj", "5"],
        ["region", "--rate", "inf", "--px", "10", "--pj", "5"],
        ["cover", "--rate", "nan", "--trials", "1", "--seed", "1"],
        ["gaps", "--case", "a", "--grid", "306:310:1"],
        ["gaps", "--case", "b", "--grid", "1:2"],
        ["gaps", "--case", "b", "--grid", "1:2:0"],
        ["scaling", "--case", "a", "--exponents", "a:b"],
        ["scaling", "--case", "a", "--exponents", "10"],
        ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:1:-1"],
        ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:1"],
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "1", "--seed", "1"],
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c2", "1", "--seed", "1"],
        ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c2", "1", "--seed", "1"],
        ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "1", "--seed", "1"],
        ["simulate", "--case", "b", "--px", "1e306", "--pj", "1", "--c1", "1", "--c2", "1",
         "--samples", "1000", "--seed", "1"],
        ["simulate", "--case", "b", "--px", "1e308", "--pj", "1", "--c1", "1", "--c2", "1",
         "--samples", "1000", "--seed", "1"],
        ["scaling", "--case", "a", "--exponents", "1:1024"],
        ["scaling", "--case", "b", "--exponents", "1:1024"],
        ["scaling", "--case", "c", "--exponents", "1:1024"],
        ["bounds", "--case", "a", "--px", "15", "--pj", "15", "--c2=-inf"],
        ["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "1", "--c2=-inf"],
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1=-inf", "--c2", "1",
         "--samples", "1000", "--seed", "1"],
        ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1=-inf", "--c2", "1",
         "--samples", "1000", "--seed", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_input_outside_the_model_exits_2(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_largest_exponent_below_overflow_is_accepted(case, capsys):
    code, out = run_cli(["scaling", "--case", case, "--exponents", "1:1023"], capsys)
    assert code == 0
    assert json.loads(out)["exponent_grid"][-1] == 1023.0


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a scipy import would add about a
    # second to every CLI start-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, tworelay.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_secrets():
    # secrets is needed only to draw a missing --seed, which
    # test_simulate_generates_and_records_seed covers
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, tworelay.cli; print('secrets' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_grid_overflow_exits_2_before_numpy_warns():
    # -W error would turn numpy's overflow warning on 10.0**310 into a traceback
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tworelay.cli", "gaps",
                           "--case", "a", "--grid", "306:310:1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("tworelay: error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("p_x, samples, code", [
    ("1e303", "100000", 0),  # the sums' squares pass the largest float, the moments do not
    ("1e306", "1000", 2),  # the sum of x**2 passes it: refused, naming p_x
    ("1e308", "1000", 2),  # so does the cell length sqrt(12*p_x)
])
def test_simulate_near_the_largest_float_warns_nothing(p_x, samples, code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["simulate", "--case", "b", "--px", p_x, "--pj", "1", "--c1", "1", "--c2", "1",
            "--samples", samples, "--seed", "1"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tworelay.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("tworelay: error: ") and "p_x" in proc.stderr
        assert proc.stderr.count("\n") == 1
        return
    assert proc.stderr == ""
    stats = json.loads(proc.stdout)["stats"]
    reference = subprocess.run([sys.executable, "-m", "tworelay.cli", *argv[:4], "1e150",
                                *argv[5:]], env=env, capture_output=True, text=True,
                               timeout=120, check=True)
    expected = json.loads(reference.stdout)["stats"]
    assert stats["x_v_correlation"] == pytest.approx(expected["x_v_correlation"], rel=1e-12)
    assert stats["dither_uniformity_pvalue"] == expected["dither_uniformity_pvalue"]
    assert stats["rate_estimate"] == pytest.approx(expected["rate_estimate"], rel=1e-12)


def test_cli_import_starts_no_thread():
    # the simulator's thread pool is created per run, and concurrent.futures
    # is imported only then, so a CLI start-up pays for neither
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, threading, tworelay.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1", "False"]


def test_simulate_is_clean_under_dev_mode():
    # -X dev turns on resource and thread-shutdown warnings, -W error makes
    # each of them fatal; three batches keep the worker pool busy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1",
            "--samples", str(3 * (1 << 16)), "--seed", "3"]
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "tworelay.cli",
                           *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["stats"]["samples"] == 3 * (1 << 16)
