"""``tools/starts_table.py`` on one dataset, one start and 20 iterations;
the full table takes minutes and is not run here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "starts_table.py"
spec = importlib.util.spec_from_file_location("starts_table", TOOL)
st = importlib.util.module_from_spec(spec)
spec.loader.exec_module(st)


def test_one_start_of_one_cell_gives_one_row_per_method():
    rows = st.cell_fits(2, "kmeanspp-lite", st.METHODS, datasets=1, starts=1, iters=20, em_iters=20)
    assert sorted(rows) == sorted(st.METHODS)
    for method in st.METHODS:
        (du, failed, floors), = rows[method]
        assert du >= 0.0 and failed is False and floors >= 0
        summary = st.summarize(rows[method])
        assert summary == {
            "successes": int(du < st.TARGET), "fits": 1, "median_du": du, "failed": 0, "floor_events": floors
        }
        assert st.line(method, 2, "kmeanspp-lite", summary).startswith(f"{method:<7} kmeanspp-lite m=2  ")


def test_a_summary_counts_successes_failures_and_floor_events():
    summary = st.summarize([(0.1, False, 0), (0.5, True, 3), (0.2, False, 2)])
    assert summary == {"successes": 2, "fits": 3, "median_du": 0.2, "failed": 1, "floor_events": 5}
