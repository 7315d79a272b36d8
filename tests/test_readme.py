"""The README's library example runs and prints the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def _commented_values(block: str):
    """(expression, written value) for every line whose comment starts with a number."""
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        number = re.match(r"\s*(-?\d+(?:\.\d+)?)", comment)
        if sep and code.strip() and number:
            yield code.strip(), number.group(1)


def test_readme_library_example_prints_its_commented_values():
    block = _library_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = []
    for code, written in _commented_values(block):
        value = eval(code, namespace)
        # the comment states the value to the places it writes
        places = len(written.partition(".")[2])
        assert round(value, places) == float(written), (code, value, written)
        checked.append(code)
    assert checked == [
        "res.value",
        'res.diagnostics["n_eff_integer"]',
        'rqfi_size(spec, family="quadrature+number").value',
        "stats.mean",
        "distill_expected_n(5, 0.8)",
        "feats.peak_separation",
    ]
