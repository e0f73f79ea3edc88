import pytest

from aifv.bitstrings import BitString
from aifv.forest import CodeForest, CodeTree
from aifv.modes import Mode

B = BitString.from_text


def make_mode(n, *texts):
    return Mode(frozenset(B(t) for t in texts), n)


def make_tree(n, mode_texts, entries):
    """entries: list of (codeword_text, link) per symbol."""
    return CodeTree(
        codewords=tuple(B(cw) for cw, _ in entries),
        links=tuple(link for _, link in entries),
        mode=make_mode(n, *mode_texts),
    )


@pytest.fixture(scope="session")
def demo_forest():
    """The worked five-tree forest over symbols a=0, b=1, c=2 (delay 3)."""
    trees = (
        make_tree(3, [""], [("", 1), ("0", 2), ("11", 0)]),
        make_tree(3, ["011", "10"], [("10", 3), ("011", 0), ("101", 4)]),
        make_tree(3, ["0", "10"], [("0", 3), ("10", 0), ("01", 4)]),
        make_tree(3, ["0", "100"], [("00", 0), ("01", 0), ("100", 0)]),
        make_tree(3, ["01", "1"], [("1", 4), ("01", 0), ("100", 0)]),
    )
    return CodeForest(trees, 3)


def worst_trace(report):
    """The worst absorbing block's expected length at each iteration."""
    return tuple(max(lbars) for lbars in report.iteration_lbars)


def report_record(report):
    """The report as ``repr`` printed it while it stored all thirteen of
    its values as fields, in their order: the text the pinned digests
    hash, so no value can move unseen."""
    values = {
        "converged": report.converged,
        "e_optimal": report.e_optimal,
        "f_optimal": report.f_optimal,
        "g_checked": report.g_checked,
        "iterations": report.iterations,
        "tolerance": report.tolerance,
        "block_lbars": report.iteration_lbars[-1],
        "selected_block": report.selected_block,
        "expected_len": report.expected_len,
        "max_lbar_trace": worst_trace(report),
        "iteration_lbars": report.iteration_lbars,
        "max_dcost_trace": report.max_dcost_trace,
        "stepg_converged": report.stepg_converged,
    }
    return f"OptimalityReport({', '.join(f'{k}={v!r}' for k, v in values.items())})"
