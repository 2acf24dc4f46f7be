import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from effectgeom import RiskTable, StratumPair

# a deep random check, chosen with --hypothesis-profile=thorough; CI runs the
# interior margin proofs under it
settings.register_profile("thorough", max_examples=5000, deadline=None)

# interior probabilities comfortably away from the open-interval guard
probs = st.floats(min_value=1e-4, max_value=1.0 - 1e-4, allow_nan=False)


@st.composite
def stratum_pairs(draw):
    return StratumPair(draw(probs), draw(probs))


@st.composite
def risk_tables(draw):
    return RiskTable(draw(probs), draw(probs), draw(probs), draw(probs))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250810)


#: Risk boxes on which the forward maps' contrasts are checked: small,
#: middling and near-1 risks.
RISK_BOXES = {"small": (1e-6, 1e-3), "middling": (0.01, 0.99), "near_1": (0.999, 1.0 - 1e-6)}


def random_tables(rng, n, low=1e-4, high=1.0 - 1e-4):
    """n random risk tables, entries uniform on (low, high)."""
    draws = rng.uniform(low, high, size=(n, 4))
    return [RiskTable(*row) for row in draws]
