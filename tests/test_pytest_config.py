import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_a_passing_test():
    pass
'''


def test_a_failing_property_is_reported_under_the_warning_filters(tmp_path):
    """Under ``filterwarnings = error``, a failing ``@given`` test must be
    reported with its falsifying example, and the run must go on."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYTEST_INI), "-q",
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
