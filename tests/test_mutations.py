import re

import pytest

from mutations import MUTATIONS, ROOT, planted


@pytest.mark.parametrize("row", MUTATIONS, ids=lambda row: row.name)
def test_each_planted_fault_still_applies_to_the_program(row):
    # the old text occurs exactly once, and each named test is still defined
    text = (ROOT / "src" / "ecledger" / f"{row.module}.py").read_text()
    assert planted(row, text) != text
    for node in row.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.MULTILINE), node
