import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("p_x, p_j, c1, c2", [
        ("1", "5e-324", "1", "1"),  # p_x/p_j of the modulo bound overflows
        ("1e308", "0", "600", "1e308"),  # p_x over the derived form's p_neq = 0.5 does
    ])
    def test_ratio_past_the_largest_float_stays_finite(self, p_x, p_j, c1, c2, capsys):
        code, out = run_cli(["bounds", "--case", "c", "--px", p_x, "--pj", p_j,
                             "--c1", c1, "--c2", c2], capsys)
        assert code == 0
        rows = {(row["row_type"], row["label"]): float(row["rate_bits"])
                for row in parse_csv(out)[1]}
        point = [float(v) for v in (p_x, p_j, c1, c2)]
        derived = rows["achievable", "case_c_derived"]
        assert oracles.within(derived, oracles.ach_c_derived(*point))
        assert derived <= rows["bound", "binding"]
        if point[1] > 0.0:
            assert oracles.within(rows["bound", "modulo"], oracles.modulo_c(*point))

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
        for spec in ("", "5:1:1"):  # no spec, and a stop below the start
            code, out = run_cli(
                ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", spec],
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

    def test_ratio_past_the_largest_float(self, capsys):
        # 0.5*log2(1 + 1e608) is about 1010 bits, not inf
        code, out = run_cli(["region", "--rate", "2000", "--px", "1e308", "--pj", "1e-300"],
                            capsys)
        assert code == 0
        rhs = {row["label"]: float(row["rhs"]) for row in parse_csv(out)[1] if row["rhs"]}
        g = oracles.mi(1e308, 1e-300)
        assert oracles.within(rhs["b2: c1"], 2000 - g) and oracles.within(rhs["b2: c2"], 2000 - g)
        assert oracles.within(rhs["b1: c1 + c2"], 4000 - g)

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

    def test_interferer_kind_does_not_matter_without_interference(self, capsys):
        def stats(kind):
            code, out = run_cli(["simulate", "--case", "c", "--px", "15", "--pj", "0",
                                 "--c1", "2", "--c2", "1", "--samples", "70000", "--seed", "3",
                                 "--interferer", kind], capsys)
            assert code == 0
            return json.loads(out)["stats"]

        assert stats("uniform") == stats("bpsk") == stats("gaussian")

    def test_cover_past_memory_exits_2_with_one_error_line(self, capsys, monkeypatch):
        # as numpy raises it for a block length it cannot allocate (--n 100000000000)
        def allocate(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                              "(100000000000,) and data type float64")

        monkeypatch.setattr(cli, "coverage_experiment", allocate)
        code = cli.main(["cover", "--rate", "0", "--n", "100000000000", "--trials", "1",
                         "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "tworelay: error: cover does not fit in memory at these parameters\n"

    def test_a_key_error_is_a_fault_not_bad_input(self, capsys, monkeypatch):
        # no subcommand raises KeyError on bad input, so one from a fault is not
        # turned into exit 2 and an error line
        def broken(args):
            raise KeyError("no such table entry")

        monkeypatch.setattr(cli, "cmd_scaling", broken)
        with pytest.raises(KeyError, match="no such table entry"):
            cli.main(["scaling", "--case", "a"])
        assert capsys.readouterr() == ("", "")

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


@pytest.mark.parametrize("out, outdir", [
    pytest.param(".", None, id="out-is-a-directory"),
    pytest.param("file/x.csv", None, id="out-below-a-file"),
    pytest.param("x.csv", "file", id="outdir-is-a-file"),
])
def test_unwritable_out_exits_2_with_one_error_line(out, outdir, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("kept", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    if outdir is not None:
        monkeypatch.setenv("TWORELAY_OUTDIR", str(tmp_path / outdir))
    else:
        monkeypatch.delenv("TWORELAY_OUTDIR", raising=False)
    code = cli.main(["bounds", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2",
                     "--c2", "1", "--out", out])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("tworelay: error: ") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("argv, form", [
    (["scaling", "--case", "a", "--exponents", "10"], "--exponents must be lo:hi"),
    (["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:28"],
     "--sum-range must be start:stop:step"),
    (["gaps", "--case", "b", "--grid", "1:9"],
     "--grid must be exp_lo:exp_hi:points_per_decade"),
    # fields that are not finite values of their type
    (["scaling", "--case", "a", "--exponents", "10:abc"], "--exponents must be lo:hi"),
    (["scaling", "--case", "a", "--exponents", "10.5:20"], "--exponents must be lo:hi"),
    (["sweep", "--case", "b", "--px", "1e6", "--pj", "1e3", "--sum-range", "a:1:1"],
     "--sum-range must be start:stop:step"),
    (["sweep", "--case", "b", "--px", "1e6", "--pj", "1e3", "--sum-range", "0:1:nan"],
     "--sum-range must be start:stop:step"),
    (["sweep", "--case", "b", "--px", "1e6", "--pj", "1e3", "--sum-range", "0:inf:1"],
     "--sum-range must be start:stop:step"),
    (["gaps", "--case", "a", "--grid", "nan:9:5"],
     "--grid must be exp_lo:exp_hi:points_per_decade"),
    (["gaps", "--case", "a", "--grid", "1:inf:5"],
     "--grid must be exp_lo:exp_hi:points_per_decade"),
    (["gaps", "--case", "a", "--grid", "1:9:x"],
     "--grid must be exp_lo:exp_hi:points_per_decade"),
    (["scaling", "--case", "b", "--coupling", "pj=abc"],
     "coupling must be 'pj=px', 'pj=sqrt(px)' or 'pj=<value>'"),
    (["scaling", "--case", "a", "--coupling", "px=3"],
     "coupling must be 'pj=px', 'pj=sqrt(px)' or 'pj=<value>'"),
    (["sweep", "--case", "b", "--px", "1e6", "--pj", "1e3", "--sum-range", "0:1.7e308:1e308"],
     "--sum-range stop + step/2 passes the largest float"),
], ids=lambda value: value[-1] if isinstance(value, list) else "form")
def test_range_spec_with_the_wrong_field_count_names_its_form(argv, form, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"tworelay: error: {form}, got {argv[-1]!r}\n"


@pytest.mark.parametrize("argv", [
    ["scaling", "--case", "a", "--exponents", "-5:3"],
    ["scaling", "--case", "a", "--exp", "-5:3"],  # an abbreviation of the flag
    ["scaling", "--case", "b", "--exponents", "-1100:3"],
    ["scaling", "--case", "a", "--exponents", "-inf:3"],
    ["gaps", "--case", "a", "--grid", "-3:5:1"],
    ["gaps", "--case", "c", "--grid", "-3:x:1"],
    ["sweep", "--case", "b", "--px", "10", "--pj", "10", "--sum-range", "-1:2:1"],
], ids=" ".join)
def test_range_with_a_negative_first_field_reads_alike_in_both_forms(argv, capsys):
    # argparse took a value that starts with '-' for an option: the space form
    # exited 2 with "expected one argument", the '=' form ran
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    runs = []
    for form in (argv, joined):
        code = cli.main(form)
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert "expected one argument" not in runs[0][2]


def test_range_values_are_joined_from_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["tworelay", "gaps", "--case", "b", "--grid", "-1:1:1"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["parameters"]["grid"] == "-1:1:1"


@pytest.mark.parametrize("argv", [
    ["sweep", "--case", "b", "--px", "-1", "--pj", "1", "--sum-range", "0:1:1"],
    ["sweep", "--case", "b", "--px", "-1:2", "--pj", "1"],
    ["scaling", "--case", "a", "--exponents", "-5"],
    ["scaling", "--case", "a", "--exponents=-5:3", "-1:2"],
], ids=" ".join)
def test_other_values_are_passed_on_as_given(argv):
    assert cli._join_range_values(argv) == argv


@pytest.mark.parametrize("argv, error", [
    (["scaling", "--case", "a", "--coupling", "pj=-1"],
     "constant interferer power must be > 0, got -1.0"),
    (["scaling", "--case", "a", "--coupling", "pj=0"],
     "constant interferer power must be > 0, got 0.0"),
    (["scaling", "--case", "c", "--capacity-scale", "inf"],
     "capacity scale must be finite and >= 0, got inf"),
    # refused from the count alone, before any power is computed
    (["gaps", "--case", "a", "--grid", "0:1e18:1000"],
     "1000000000000000000000 powers do not fit in memory"),
    (["gaps", "--case", "a", "--grid", "306:309:3"], "grid powers up to 10**309 overflow a float"),
    # the sweep's powers, checked as a config checks its fields
    (["sweep", "--case", "c", "--px", "-1", "--pj", "1", "--sum-range", "0:1:1"],
     "p_x must be >= 0, got -1.0"),
    (["sweep", "--case", "c", "--px", "10", "--pj", "nan", "--sum-range", "0:1:1"],
     "p_j must be >= 0, got nan"),
    (["sweep", "--case", "c", "--px", "inf", "--pj", "10", "--sum-range", "0:1:1"],
     "p_x must be finite, got inf"),
    (["sweep", "--case", "c", "--px", "nan", "--pj", "1", "--sum-range", "0:1:1"],
     "p_x must be >= 0, got nan"),
    # and the region's
    (["region", "--rate", "1", "--pj", "1", "--px", "-1"], "p_x must be >= 0, got -1.0"),
    (["region", "--rate", "1", "--pj", "1", "--px", "nan"], "p_x must be >= 0, got nan"),
    (["region", "--rate", "1", "--pj", "1", "--px", "inf"], "p_x must be finite, got inf"),
    # refused by the config, not by numpy's seeding
    (["cover", "--rate", "0.5", "--trials", "3", "--seed", "-5"], "seed must be >= 0, got -5"),
    (["cover", "--rate", "0.5", "--seed", "1", "--eps", "inf"],
     "typicality_epsilon must be finite and > 0, got inf"),
    (["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "2",
      "--seed", "-5"], "seed must be >= 0, got -5"),
], ids=lambda value: " ".join(value[:1] + value[-2:]) if isinstance(value, list) else "error")
def test_refusal_is_one_error_line(argv, error, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"tworelay: error: {error}\n"


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
        ["region", "--rate", "1e308", "--px", "15", "--pj", "15"],  # 2*rate overflows
        ["region", "--rate", "1e308", "--px", "15", "--pj", "15", "--format", "svg"],
        ["cover", "--rate", "nan", "--trials", "1", "--seed", "1"],
        ["gaps", "--case", "a", "--grid", "306:310:1"],
        ["gaps", "--case", "b", "--grid", "1:2"],
        ["gaps", "--case", "b", "--grid", "1:2:0"],
        ["scaling", "--case", "a", "--exponents", "a:b"],
        ["scaling", "--case", "a", "--exponents", "10"],
        ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:1:-1"],
        ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:1"],
        # arrays larger than the 64-bit user address space: refused before any allocation
        ["sweep", "--case", "b", "--px", "10", "--pj", "1", "--sum-range", "0:1e12:1e-3"],
        ["gaps", "--case", "a", "--grid", "0:9:10000000000000"],
        ["sweep", "--case", "b", "--px", "1e6", "--pj", "1e3", "--sum-range", "0:1e300:1e-300"],
        # ladders past the float range: refused before the list is built
        ["scaling", "--case", "a", "--exponents", "0:100000000000"],
        ["scaling", "--case", "a", "--exponents=-100000000000:0"],
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "1", "--seed", "1"],
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c2", "1", "--seed", "1"],
        ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c2", "1", "--seed", "1"],
        ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "1", "--seed", "1"],
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1",
         "--samples", "1", "--seed", "1"],  # no unbiased variance from one sample
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
        *(["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", c1, "--c2", "1",
           "--samples", "100", "--seed", "1", f"--alpha={alpha}"]
          for c1, alpha in (("1", "1e308"), ("1", "5e307"), ("1", "1.4e154"), ("1", "inf"),
                            ("1", "-inf"), ("1", "nan"), ("1", "1e154"), ("1e-320", "0.5"))),
        ["simulate", "--case", "b", "--px", "15", "--pj", "15", "--c1", "1e-320", "--c2", "1",
         "--samples", "100", "--seed", "1"],
        # alpha*y1 passes the largest float; so does alpha*y1 over the cell length
        *(["simulate", "--case", "general", "--px", px, "--pj", pj, "--c1", "inf", "--c2", "inf",
           "--a", "0", "--b", "0", "--pn1", "0", "--pn2", "0", "--alpha", alpha,
           "--samples", "100", "--seed", "1"]
          for px, pj, alpha in (("1", "1e308", "1e154"), ("1e-300", "1e200", "1e60"))),
        *(["cover", "--rate", "0.5", "--seed", "1", *flags.split()]
          for flags in ("--source-var inf", "--source-var 1e154", "--distortion 1e308",
                        "--distortion 5e-324", "--source-var nan", "--distortion=-1",
                        "--source-var 1e-200 --distortion 1e-200")),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_input_outside_the_model_exits_2(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("px, pj, alpha", [
    ("1", "1e308", "1e46"),  # alpha**2 * p_j overflows, alpha*y_i does not
    ("1", "1e300", "1e150"),
    ("1e-300", "1e100", "1e100"),  # alpha*y_i over the cell length stays below 1e302
])
def test_scaled_observations_below_the_largest_float_run(px, pj, alpha, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["simulate", "--case", "general", "--px", px, "--pj", pj,
                             "--c1", "inf", "--c2", "inf", "--a", "0", "--b", "0",
                             "--pn1", "0", "--pn2", "0", "--alpha", alpha,
                             "--samples", "100", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["stats"]["samples"] == 100


@pytest.mark.parametrize("argv", [
    # p_x/var is subnormal: the ratio keeps a few digits
    ["--case", "b", "--px", "1e-300", "--pj", "1", "--c1", "1e-323", "--c2", "1",
     "--samples", "1000"],
    ["--case", "general", "--px", "1e-30", "--pj", "1", "--c1", "inf", "--c2", "inf",
     "--a", "1", "--b", "0", "--pn1", "1", "--pn2", "1", "--alpha", "1e140", "--samples", "100"],
    # p_x/var underflows to 0
    ["--case", "general", "--px", "1e-30", "--pj", "1", "--c1", "inf", "--c2", "inf",
     "--a", "1", "--b", "0", "--pn1", "1", "--pn2", "1", "--alpha", "1e150", "--samples", "100"],
], ids=["case-b", "general-subnormal", "general-zero"])
def test_simulated_rate_below_the_smallest_normal_ratio_is_a_log_difference(argv, capsys):
    code, out = run_cli(["simulate", *argv, "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    p_x, var = doc["config"]["p_x"], doc["stats"]["empirical_var_neq"]
    assert p_x / var < sys.float_info.min
    rate = doc["stats"]["rate_estimate"]
    assert rate == 0.5 * (math.log2(p_x) - math.log2(var))
    assert rate == pytest.approx(float(0.5 * mpmath.log(mpmath.mpf(p_x) / var, 2)), rel=1e-15)


#: Python's and numpy's own messages, which name neither the flag nor its form
LEAKED = ("math domain error", "invalid literal for int()", "could not convert string to float",
          "arange:", "Maximum allowed size exceeded", "expected non-negative integer")


def run_extreme(argv):
    """Exit code and stdout of `cli.main(argv)`, warnings as errors; argparse's
    usage error gives its exit code.  A refusal must not print a bare message
    of Python or numpy (`LEAKED`)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    assert not any(text in err.getvalue() for text in LEAKED), err.getvalue()
    return code, out.getvalue()


#: The `simulate` flags of the extreme-input matrix, and the values each
#: takes; None leaves the flag out.  The flags after the channel's four have
#: a default and are left out half the time, so that more argv pass the boundary.
EXTREME_FLAGS = ("--px", "--pj", "--c1", "--c2", "--pn1", "--pn2", "--a", "--b", "--alpha")
EXTREME_VALUES = (None, "0", "-0.0", "5e-324", "1e-320", "1e-300", "1e-200", "1e60", "1e150",
                  "1e154", "5e307", "1e308", "inf", "-inf", "nan", "-1")
BEYOND_THE_LARGEST_FLOAT = ("inf", "inf", "0", "0", "0", "0")  # --c1 ... --b
#: A general case inside the model whose gains differ by more than sqrt of the
#: largest float, so that the square of their difference overflows.
BIG_GAINS = st.tuples(*[st.sampled_from(["1", "15", "1e6"])] * 2,
                      *[st.sampled_from(["1", "2", "inf"])] * 2, st.just("1"), st.just("1"),
                      st.sampled_from(["1e155", "1e200", "1e300"]),
                      st.sampled_from(["0", "1", "-1e155"]), st.none())


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(case_values=st.one_of(
    st.tuples(st.sampled_from(["b", "c", "general"]),
              st.tuples(*[st.sampled_from(EXTREME_VALUES)] * 4,
                        *[st.one_of(st.none(), st.sampled_from(EXTREME_VALUES))] * 5)),
    st.tuples(st.just("general"), BIG_GAINS)))
@example(case_values=("general", ("1", "1e308", *BEYOND_THE_LARGEST_FLOAT, "1e154")))
@example(case_values=("general", ("1e-300", "1e200", *BEYOND_THE_LARGEST_FLOAT, "1e60")))
@example(case_values=("general", ("1e300", "1", "inf", "inf", "1e-200", "0", "1", "0", "1")))
@example(case_values=("general", ("1e-30", "1", "inf", "inf", "1", "1", "1", "0", "1e150")))
def test_simulate_at_extreme_inputs_exits_0_or_2(case_values):
    # warnings are errors in the worker threads too: the filters are process-wide
    case, values = case_values
    argv = ["simulate", "--case", case, "--samples", "100", "--seed", "1"]
    argv += [f"{flag}={value}" for flag, value in zip(EXTREME_FLAGS, values) if value]
    code, out = run_extreme(argv)
    assert code in (0, 2)
    if code != 0:
        return
    doc = json.loads(out)
    stats = doc["stats"]
    assert (stats["samples"], stats["seed"]) == (100, 1)
    assert 0.0 <= stats["dither_uniformity_pvalue"] <= 1.0
    assert math.isnan(stats["x_v_correlation"]) or -1.0 <= stats["x_v_correlation"] <= 1.0
    for key in ("empirical_var_neq", "analytic_var_neq"):
        assert math.isfinite(stats[key]) and stats[key] >= 0.0, key
    assert math.isfinite(stats["identity_max_residual"])
    assert stats["identity_max_residual"] <= stats["cell_length"] / 2
    p_x, var = doc["config"]["p_x"], stats["empirical_var_neq"]
    if var == 0.0:
        assert stats["rate_estimate"] == math.inf
    elif sys.float_info.min <= p_x / var < math.inf:
        assert stats["rate_estimate"] == 0.5 * math.log2(p_x / var)
    else:  # the ratio is not a normal float, the rate is
        exact = 0.5 * mpmath.log(mpmath.mpf(p_x) / var, 2)
        assert stats["rate_estimate"] == pytest.approx(float(exact), rel=1e-15)


#: Values of every numeric flag of the other subcommands; None leaves the flag out.
TOKENS = (None, "0", "-0.0", "5e-324", "1e-320", "1e-200", "1e154", "5e307", "1e308", "inf",
          "-inf", "nan", "-1")


@st.composite
def extreme_argv(draw):
    """An argv of bounds, sweep, region, gaps, scaling or cover over `TOKENS`,
    with ranges, grids and trials of a few points each.  A flag with a default
    is left out half the time, so that more argv pass the boundary.  A range
    spec may also have a malformed or non-finite field, or a count of 1e18 or
    more, which no host can allocate, so that no draw allocates."""
    token = st.sampled_from(TOKENS)

    def spec(*fields):
        return st.tuples(*map(st.sampled_from, fields)).map(":".join)

    optional = st.one_of(st.none(), token)
    cases = st.sampled_from("abc")
    flags = {
        "bounds": {"--case": cases, "--px": token, "--pj": token, "--c1": optional,
                   "--c2": optional},
        "sweep": {"--case": st.sampled_from("bc"), "--px": token, "--pj": token,
                  "--sum-range": st.one_of(token.map(lambda t: t and f"0:{t}:{t}"),
                                           token.map(lambda t: t and f"{t}:{t}:1"),
                                           spec(("0", "1", "-1e18", "a", ""),
                                                ("1", "1e18", "1e300", "nan"),
                                                ("1", "1e-300", "inf", "1.5.1"))),
                  "--split-samples": st.sampled_from(("0", "2", "5"))},
        "region": {"--rate": token, "--px": token, "--pj": token},
        "gaps": {"--case": cases,
                 "--grid": st.one_of(
                     st.builds(lambda lo, width, per_decade: f"{lo}:{float(lo) + width}:"
                               f"{per_decade}",
                               st.sampled_from(("-330", "-320", "-300", "0", "154", "300",
                                                "307", "308", "309", "inf", "nan")),
                               st.sampled_from((0, 1)), st.sampled_from(("0", "1", "2"))),
                     spec(("0", "nan", "-inf", "x"), ("0", "1", "inf", "1e18"),
                          ("1", "2", "x", "1.5", "1000000000000000000", "1e400")))},
        "scaling": {"--case": cases,
                    "--exponents": st.one_of(
                        st.builds(lambda lo, width: f"{lo}:{int(lo) + width}",
                                  st.sampled_from(("-1100", "-1074", "0", "1", "1000", "1020",
                                                   "1024")),
                                  st.sampled_from((0, 1, 3))),
                        spec(("0", "-1000000000000000000", "x", "nan"),
                             ("2", "1000000000000000000", "2.5", "inf", ""))),
                    "--capacity-scale": optional,
                    "--coupling": st.one_of(st.sampled_from(("pj=px", "pj=sqrt(px)")),
                                            token.map(lambda t: t and f"pj={t}"))},
        "cover": {"--rate": token, "--source-var": optional, "--distortion": optional,
                  "--eps": optional, "--trials": st.sampled_from(("1", "20"))},
    }
    command = draw(st.sampled_from(["bounds", *flags]))  # bounds carries most rates
    argv = [command, "--seed=1"] if command == "cover" else [command]
    for flag, values in flags[command].items():
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


def json_numbers(value):
    """Every number in a JSON document."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in json_numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in json_numbers(v)]
    return [value] if isinstance(value, float) else []


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(extreme_argv())
@example(["bounds", "--case=c", "--px=1e308", "--pj=0", "--c1=600", "--c2=1e308"])
@example(["bounds", "--case=c", "--px=1", "--pj=5e-324", "--c1=1", "--c2=1"])
@example(["bounds", "--case=c", "--px=15", "--pj=15", "--c1=1e308", "--c2=1e308"])
@example(["sweep", "--case=c", "--px=1", "--pj=5e-324", "--sum-range=0:1e308:1e308"])
@example(["region", "--rate=2000", "--px=1e308", "--pj=1e-300"])
def test_other_subcommands_at_extreme_inputs_exit_0_or_2(argv):
    code, out = run_extreme(argv)
    assert code in (0, 2)
    if code != 0:
        return
    # a field is inf only where an input is unlimited or its exact value passes
    # the largest float; rates and bounds stay finite for finite input
    unlimited = any("inf" in arg for arg in argv)
    if argv[0] in ("gaps", "scaling", "cover"):
        assert unlimited or all(map(math.isfinite, json_numbers(json.loads(out))))
    elif argv[0] == "region":
        fields = [row[k] for row in parse_csv(out)[1] for k in ("c1", "c2", "rhs") if row[k]]
        assert unlimited or all(math.isfinite(float(v)) for v in fields)
    elif argv[0] == "sweep":
        for row in parse_csv(out)[1]:
            bounds = [float(row["cutset"])] + ([float(row["modulo"])] if row["modulo"] else [])
            assert float(row["best_rate"]) <= min(bounds) + 1e-9, row
            assert unlimited or all(map(math.isfinite, [float(row["best_rate"]), *bounds])), row
    else:
        links = dict(arg.split("=") for arg in argv[1:])
        rows = {(row["row_type"], row["label"]): float(row["rate_bits"])
                for row in parse_csv(out)[1]}
        for (kind, label), rate in rows.items():
            if kind != "bound":
                assert rate <= rows["bound", "binding"] + 1e-9, (kind, label)
            past = label == "c1 + c2" and math.isinf(float(links["--c1"]) + float(links["--c2"]))
            assert unlimited or past or math.isfinite(rate), (kind, label)


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_largest_exponent_below_overflow_is_accepted(case, capsys):
    # p_x + p_j overflows on the top rung of Cases A and B; its rate still
    # climbs half a bit per rung
    code, out = run_cli(["scaling", "--case", case, "--exponents", "1:1023"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent_grid"][-1] == 1023.0
    rates = doc["rate_samples"]
    assert rates[-1] == pytest.approx(rates[-2] + 0.5, abs=1e-9)
    assert rates[-1] == pytest.approx({"a": 510.7075187496394}.get(case, 510.5), abs=1e-9)
    assert doc["prelog"] == pytest.approx(0.5, abs=1e-9)


#: `scaling` flags at an edge -> exit code of Cases A, B and C
SCALING_EDGES = {
    "--exponents=-1100:-1070": (2, 2, 2),  # every power underflows to 0
    "--exponents=1020:1023": (0, 0, 0),  # p_x + p_j overflows in Cases A and B
    "--exponents=10:1000": (0, 0, 0),
    "--capacity-scale=inf": (2, 2, 2),  # Case B's c1 would be unlimited
    "--capacity-scale=inf --exponents=0:12": (2, 2, 2),  # inf * 0 bits at p_x = 1
    "--capacity-scale=-1": (2, 2, 2),
    "--capacity-scale=-1 --coupling=pj=5e-324": (2, 2, 2),  # every Case A link would be -0.0
    "--capacity-scale=nan": (2, 2, 2),
    "--capacity-scale=0": (0, 0, 0),
    "--coupling=pj=0": (2, 2, 2),
    "--coupling=pj=nan": (2, 2, 2),
    "--coupling=pj=inf": (0, 0, 0),  # c2 takes its limit 0.5*log2(p_x)
    "--coupling=pj=1e-320": (0, 0, 0),
}


@pytest.mark.parametrize("flags", sorted(SCALING_EDGES))
@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_scaling_ladder_edges_exit_0_or_2_without_warning(case, flags, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["scaling", "--case", case, *flags.split()], capsys)
    assert code == SCALING_EDGES[flags]["abc".index(case)]
    if code == 0:
        assert all(math.isfinite(r) for r in json.loads(out)["rate_samples"])
    else:
        assert out == ""


def test_bounds_on_links_whose_sum_overflows_warn_nothing(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["bounds", "--case", "c", "--px", "15", "--pj", "15",
                             "--c1", "1e308", "--c2", "1e308"], capsys)
    assert code == 0
    rows = {(row["row_type"], row["label"]): row["rate_bits"] for row in parse_csv(out)[1]}
    assert rows["bound", "c1 + c2"] == "inf"
    assert rows["achievable", "local_decode"] == repr(0.5 * math.log2(1.0 + 15.0 / 16.0))


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


DEV_MODE_CALLS = [
    ["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1"],
    ["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1",
     "--format", "json"],
    ["sweep", "--case", "c", "--px", "1e8", "--pj", "1e4", "--sum-range", "0:4:0.5",
     "--split-samples", "101"],
    ["region", "--rate", "2", "--px", "15", "--pj", "15"],
    ["region", "--rate", "2", "--px", "15", "--pj", "15", "--format", "svg"],
    ["gaps", "--case", "c", "--grid", "1:9:2"],
    ["scaling", "--case", "a"],
    ["cover", "--rate", "0.5", "--trials", "20", "--seed", "1"],
    ["simulate", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1",
     "--samples", str(3 * (1 << 16)), "--seed", "3"],  # three batches
]


def test_every_subcommand_is_clean_under_dev_mode():
    # one process runs each call; each gives exit 0 and writes nothing to stderr.
    # It calls main(), not run(), so its exit still collects reference cycles,
    # and a ResourceWarning from one left behind fails here
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = f"""
import contextlib, io, json, sys
import tworelay.cli as cli
results = []
for argv in {DEV_MODE_CALLS!r}:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([cli.main(argv), err.getvalue()])
print(json.dumps(results))
"""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[0, ""]] * len(DEV_MODE_CALLS)


#: The process entries: `python -m tworelay.cli`, and the body of the
#: `tworelay` script that `[project.scripts]` installs
PROCESS_ENTRIES = {
    "module": ["-m", "tworelay.cli"],
    "script": ["-c", "import sys; from tworelay.cli import run; sys.exit(run())"],
}


@pytest.mark.parametrize("entry", sorted(PROCESS_ENTRIES))
def test_process_entry_ends_as_main_returns(entry, capsys):
    # run() freezes the heap before exit; stdout is still flushed whole, and a
    # refusal still gives exit 2 and one error line
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    accepted = ["bounds", "--case", "c", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1"]
    refused = ["gaps", "--case", "a", "--grid", "306:310:1"]
    runs = [subprocess.run([sys.executable, "-X", "dev", "-W", "error", *PROCESS_ENTRIES[entry],
                            *argv], env=env, capture_output=True, timeout=120)
            for argv in (accepted, refused)]
    assert (runs[0].returncode, runs[0].stderr) == (0, b"")
    assert runs[0].stdout == run_cli(accepted, capsys)[1].encode()
    assert (runs[1].returncode, runs[1].stdout) == (2, b"")
    assert runs[1].stderr.startswith(b"tworelay: error: ")
    assert runs[1].stderr.count(b"\n") == 1


def test_only_run_freezes_the_heap(capsys, monkeypatch):
    argv = ["bounds", "--case", "b", "--px", "15", "--pj", "15", "--c1", "2", "--c2", "1"]
    frozen = gc.get_freeze_count()
    assert run_cli(argv, capsys)[0] == 0
    assert gc.get_freeze_count() == frozen  # main() leaves the collector working
    monkeypatch.setattr(sys, "argv", ["tworelay", *argv])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


def test_installed_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"tworelay": "tworelay.cli:run"}
