"""The package's result records are plain NamedTuples; its configs are dataclasses.

A result record is a `tuple` subclass: `_asdict()`, `_replace()` and
`_fields` serve where `dataclasses.asdict`, `replace` and `fields` did, and
the CLI writes `_asdict()` into its JSON documents, so each record's field
names, their order and their defaults are part of the output contract.  The
three configs normalize and refuse their input on construction, and stay
frozen dataclasses.
"""

import dataclasses
import math

import pytest

from tworelay.achievable import AchievableReport
from tworelay.bounds import BoundReport
from tworelay.lattice_sim import (
    CoverageConfig,
    CoverageResult,
    CryptoLemmaStats,
    SimConfig,
    SimStats,
)
from tworelay.model import ChannelConfig
from tworelay.scaling import GapCertificate, RegionPolygon, ScalingEstimate, SweepPoint

#: Each record's fields in order, and its defaults.
RECORDS = {
    AchievableReport: (("rate", "scheme", "alpha", "p_d1", "p_d2", "p_neq", "min_branch"),
                       dict(alpha=None, p_d1=None, p_d2=None, p_neq=None, min_branch=None)),
    BoundReport: (("terms", "cutset_min", "modulo_bound", "binding"), {}),
    ScalingEstimate: (("prelog", "exponent_grid", "rate_samples", "method"), {}),
    RegionPolygon: (("vertices", "target_rate", "constraints", "p1", "p2"), {}),
    GapCertificate: (("case", "regime", "grid_points", "worst_point", "max_gap", "bound_used",
                      "claimed_bound"), {}),
    SweepPoint: (("sum_capacity", "best_rate", "winning_scheme", "c1", "c2", "cutset",
                  "modulo"), {}),
    SimStats: (("empirical_var_neq", "analytic_var_neq", "identity_max_residual",
                "dither_uniformity_pvalue", "x_v_correlation", "rate_estimate", "samples",
                "seed", "cell_length"), {}),
    CryptoLemmaStats: (("uniformity_pvalue", "x_v_correlation", "samples", "seed"), {}),
    CoverageResult: (("coverage", "hits", "trials", "codewords", "mutual_information_bits"), {}),
}

CHANNEL = dict(a=1.0, b=0.0, p_x=15.0, p_j=15.0, p_n1=1.0, p_n2=0.0, c1=2.0, c2=1.0)
SIM = dict(case="b", p_x=15.0, p_j=15.0, c1=2.0, c2=1.0, samples=100, seed=1)

#: Per config: arguments it accepts, and changes to them that it refuses.
CONFIGS = {
    ChannelConfig: (CHANNEL, [dict(p_x=-1.0), dict(p_x=math.inf), dict(c2=math.nan)]),
    SimConfig: (SIM, [dict(samples=1), dict(case="a"), dict(alpha_override=math.inf),
                      dict(interferer="laplace")]),
    CoverageConfig: (dict(codebook_rate=0.5), [dict(codebook_rate=math.nan),
                                               dict(trials=0), dict(source_variance=math.inf),
                                               dict(codebook_rate=2.0)]),
}


def test_records_are_named_tuples_and_configs_are_dataclasses():
    for record, (names, defaults) in RECORDS.items():
        assert issubclass(record, tuple) and not dataclasses.is_dataclass(record), record
        assert (record._fields, record._field_defaults) == (names, defaults), record
        values = tuple(range(len(names)))
        instance = record(*values)
        assert tuple(instance) == values
        assert instance._asdict() == dict(zip(names, values))
        assert instance._replace(**{names[-1]: -1}) == (*values[:-1], -1)
    for config, (accepted, refused) in CONFIGS.items():
        assert dataclasses.is_dataclass(config) and not issubclass(config, tuple), config
        instance = config(**accepted)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, dataclasses.fields(config)[0].name, None)
        for changes in refused:
            with pytest.raises(ValueError):
                config(**accepted | changes)
