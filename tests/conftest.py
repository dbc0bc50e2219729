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
            return conditions._replace(cond_k1_holds=True, cond_k2_holds=False)
        return conditions

    monkeypatch.setattr(classify, "derive_conditions", lying)


@pytest.fixture
def odd_beta_first_condition_row(monkeypatch):
    """The batch kernel's counterpart of odd_beta_first_condition: condition
    1 holds and condition 2 fails on every odd-beta row of a batch. No
    odd-beta point divides, so the direct and condition routes still agree
    and only the odd-beta check can fire."""
    real = classify._conditions_block

    def lying(k, blocks, **kwargs):
        cond1, cond2 = real(k, blocks, **kwargs)
        # flags run alpha-major within each block
        odd = [beta % 2 == 1 for b in blocks for _ in b.alphas for beta in b.betas for _ in b.ps]
        return (
            [o or c for o, c in zip(odd, cond1)],
            [not o and c for o, c in zip(odd, cond2)],
        )

    monkeypatch.setattr(classify, "_conditions_block", lying)
