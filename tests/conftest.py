import pytest
from hypothesis import HealthCheck, settings

from pretzel_surgery import norms
from pretzel_surgery.linprog import EQ
from pretzel_surgery.slopes import MERIDIAN

settings.register_profile(
    "suite",
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def feasible_norm_model(monkeypatch):
    """Leave only |1/0| = S in the (-2,5,q) norm model: every pair is feasible."""
    full = norms.minus2_5q_norm_system

    def meridian_only(q):
        system = norms.NormSystem(full(q).boundary)
        system.add(MERIDIAN, EQ)
        return system

    monkeypatch.setattr(norms, "minus2_5q_norm_system", meridian_only)
