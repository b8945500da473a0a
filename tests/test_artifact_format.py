"""Artifact JSON derived from the dataclasses against the field-by-field
writer and reader it replaced (``artifact_oracle``)."""

import random
import warnings

import pytest

from quantldpc.evolution import EnsembleConfig, design_decoder
from quantldpc.pmf import ValidationError
from artifact_oracle import check_against_oracle

#: every node-variant pair a config accepts
PAIRS = [(cn, vn) for cn in ("comp", "comp_uni", "min") for vn in ("comp", "comp_uni")]
PAIRS.append(("omsq", "omsq"))


def sweep_points(seed, per_case=3):
    """Seeded design points: ``per_case`` for each variant pair, with and
    without clip_llr, over dc 2-8, dv 1-4 and w 2-4."""
    rng = random.Random(seed)
    for cn, vn in PAIRS:
        for clip_llr in (None, 12.5):
            for _ in range(per_case):
                w = rng.randint(2, 4)
                yield dict(dc=rng.randint(2, 8), dv=rng.randint(1, 4), w=w,
                           wphi=rng.randint(w, 8), iterations=rng.randint(1, 3),
                           cn_variant=cn, vn_variant=vn,
                           design_ebn0_db=round(rng.uniform(-1.0, 5.0), 3),
                           rate=rng.choice([0.25, 0.5, 0.841]), clip_llr=clip_llr,
                           delta_search_points=rng.choice([0, 3]),
                           uniform_grid_points=rng.choice([16, 64]),
                           uniform_warm_window=rng.choice([0, 2]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swept_designs_serialize_as_the_field_by_field_writer(seed):
    designed = 0
    for point in sweep_points(seed):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                artifact, _ = design_decoder(EnsembleConfig(**point))
        except ValidationError:
            continue    # a point with no design fails loudly, nothing to write
        check_against_oracle(artifact)
        designed += 1
    assert designed >= 3 * len(PAIRS)
