"""The line-trace plugin's statement map, list format and comparison.

These call the plugin's functions only; they never start or stop a tracer, so they
run the same with and without ``-p line_trace``.
"""

from collections import Counter

import pytest

from line_trace import LIST, compare, read_list, statements

SOURCE = '''\
X = 1


def outer(x):
    """A docstring runs no code."""
    total = 0

    def inner():
        nonlocal total
        return (total +
                x)

    if x:
        total = inner()
    else:
        total = -1
    return total


class K:
    y = 2

    @staticmethod
    def m():
        global X
        return X
'''


def test_statements_are_those_inside_function_bodies():
    first_lines = [line for line, _ in statements(SOURCE)]
    # no module or class statement, docstring, nonlocal or global
    assert first_lines == [6, 8, 10, 13, 14, 16, 17, 26]
    own = dict(statements(SOURCE))
    assert own[10] == {10, 11}  # a statement spanning two lines owns both
    assert own[13] == {13, 15}  # an if owns its test and its else, not its branches
    assert own[8] == {8}  # a nested def owns its header, not its body


def test_list_entries_need_a_reason(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("# comment\na.py: return x\n    why it never runs\na.py: return x\n  again\n")
    assert read_list(good) == Counter({("a.py", "return x"): 2})
    bad = tmp_path / "bad.txt"
    bad.write_text("a.py: return x\nb.py: pass\n    reason\n")
    with pytest.raises(ValueError, match="has no reason"):
        read_list(bad)
    bad.write_text("return x\n    reason\n")
    with pytest.raises(ValueError, match="expected 'file.py: source text'"):
        read_list(bad)


def test_compare_reports_new_and_stale_entries_by_count():
    unreached = [("a.py", 3, "return x"), ("a.py", 9, "return x"), ("b.py", 4, "pass")]
    listed = Counter({("a.py", "return x"): 1, ("c.py", "raise E"): 1})
    assert compare(unreached, listed) == (["a.py:9: return x", "b.py:4: pass"], ["c.py: raise E"])
    assert compare(unreached[:1], Counter({("a.py", "return x"): 1})) == ([], [])


def test_committed_list_parses():
    read_list(LIST)
