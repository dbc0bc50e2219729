"""Every fault in one step of the kernel pipeline fails both scans.

Each fault breaks one step that the routes, the point labels or the point
count read: a field of the blocks that _block builds, the direct route's
first 2-part of a block, the labels of _block_points, the split into tasks, or how many flags the
condition route returns. The routes then disagree or flag too few points, a
found solution fails its sigma_k re-check, or the point or beta total
misses the grid's, so each scan must raise CrossCheckError. Without a
fault the scans give their known answers: the even perfect numbers [6, 28,
8128] and 8,610 pairs.
"""

import pytest

import sigmaperfect.classify as classify
from sigmaperfect.classify import CrossCheckError, equivalence_scan, scan_special_forms

_SCANS = {
    "search": lambda: scan_special_forms(5, 12, 8),
    "equivalence": lambda: equivalence_scan(20_000),
}


def test_the_scans_give_their_known_answers_without_a_fault():
    reports, _ = _SCANS["search"]()
    assert [r.form.n() for r in reports] == [6, 28, 8128]
    assert _SCANS["equivalence"]() == 8610


def _drop_prime(b, dropped):
    """Block b without one prime, in ps and in qs."""
    kept = [i for i, p in enumerate(b.ps) if p != dropped]
    return b._replace(ps=[b.ps[i] for i in kept], qs=[b.qs[i] for i in kept])


def _shifted(betas):
    return range(betas.start + 1, betas.stop + 1)


def _in_blocks(fault):
    """A fault in the row builder's output, made on every block it builds."""
    return "_block", lambda real: lambda *args: fault(real(*args))


def _first_prime_dropped(tasks):
    return [[(a, ps[1:], b) if i == 0 else (a, ps, b) for i, (a, ps, b) in enumerate(task)]
            for task in tasks]


def _last_task_twice(tasks):
    return tasks + tasks[-1:]


def _betas_shifted(tasks):
    return [[(a, ps, _shifted(b)) for a, ps, b in task] for task in tasks]


# fault name -> (the name in classify it replaces, real -> faulty stand-in)
_FAULTS = {
    "ps rotated by one": _in_blocks(lambda b: b._replace(ps=b.ps[1:] + b.ps[:1])),
    "prime 7 dropped": _in_blocks(lambda b: _drop_prime(b, 7)),
    "betas + 1": _in_blocks(lambda b: b._replace(betas=_shifted(b.betas))),
    # the direct route steps each block's first 2-part across its alphas
    "2-part one alpha late": ("_two_part", lambda real: lambda k, alpha: real(k, alpha + 1)),
    "2-part of 2**(k+1)": ("_two_part", lambda real: lambda k, alpha: real(k + 1, alpha)),
    "labels one beta up": (
        "_block_points",
        lambda real: lambda blocks: ((p, beta + 1, a) for p, beta, a in real(blocks)),
    ),
    "labels beta-major": (
        "_block_points",
        lambda real: lambda blocks: (
            (p, beta, a) for b in blocks for beta in b.betas for p in b.ps for a in b.alphas
        ),
    ),
    "last task dropped": ("_split", lambda real: lambda table, specs: real(table, specs)[:-1]),
    "each task's first prime dropped": (
        "_split", lambda real: lambda table, specs: _first_prime_dropped(real(table, specs))
    ),
    "last task twice": (
        "_split", lambda real: lambda table, specs: _last_task_twice(real(table, specs))
    ),
    "split betas + 1": (
        "_split", lambda real: lambda table, specs: _betas_shifted(real(table, specs))
    ),
    "no condition flags": ("_conditions_block", lambda real: lambda k, blocks: ([], [])),
    "each condition one flag short": (
        "_conditions_block",
        lambda real: lambda k, blocks: tuple(flags[:-1] for flags in real(k, blocks)),
    ),
}

_PARAMS = [pytest.param(*fault, id=name) for name, fault in _FAULTS.items()] + [
    # q = p**(k+1) in the blocks' qs moves the direct route and condition 1
    # together, and condition 2 never reads q, so the routes still agree: the
    # search loses 28 and 8128 and the equivalence scan still counts 8,610
    # pairs
    pytest.param(
        "_block",
        lambda real: lambda k, *spec: real(k + 1, *spec),
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="q is shared by the direct route and condition 1; the closed-form "
            "route built from LTE and the order of 2**k, not yet in the kernel, would catch it",
        ),
        id="qs = p**(k+1)",
    )
]


@pytest.mark.parametrize("scan", _SCANS.values(), ids=_SCANS)
@pytest.mark.parametrize("target, make", _PARAMS)
def test_every_fault_fails_both_scans(target, make, scan):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, target, make(getattr(classify, target)))
        try:
            scan()
        except CrossCheckError:
            return
    raise AssertionError("the scan passed with the fault in place")


def test_a_route_that_flags_too_few_points_names_every_count():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_conditions_block", lambda k, blocks: ([], []))
        with pytest.raises(CrossCheckError) as caught:
            equivalence_scan(20_000)
    assert str(caught.value) == (
        "the routes flag 2560, 0 and 0 points (direct, condition 1, condition 2) of a batch of 2560"
    )
