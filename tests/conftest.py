from dataclasses import replace

import pytest

import sigmaperfect.classify as classify


@pytest.fixture
def odd_beta_first_condition(monkeypatch):
    """Make the first condition hold at odd beta. The second condition is
    forced false there, so the direct and condition routes still agree
    and only the odd-beta check can fire."""
    real = classify.derive_conditions

    def lying(f, bit_cap=None):
        conditions = real(f, bit_cap)
        if f.beta % 2:
            return replace(conditions, cond_k1_holds=True, cond_k2_holds=False)
        return conditions

    monkeypatch.setattr(classify, "derive_conditions", lying)
