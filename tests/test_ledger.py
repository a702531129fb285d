"""Every answer in the ledger, bit for bit: ``tests/ledger.py`` against ``tests/golden/ledger``.

The ledger holds the ``repr`` of public answers, so a change in the last
bit of any of them fails here, where the 10-digit transcripts cannot see
it.  An intended change is rewritten with ``PYTHONPATH=src python
tests/ledger.py`` and each changed line listed in CHANGES.md.
"""

from ledger import LEDGER, ledger


def test_ledger_unchanged():
    want = LEDGER.read_text().splitlines()
    got = ledger().splitlines()
    changed = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    assert not changed, "answers moved:\n" + "\n".join(changed[:10])
    assert len(got) == len(want)
