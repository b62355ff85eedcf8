"""The package's export list names each public object once, and only those."""

import twistlab


def test_every_exported_name_resolves_once():
    names = twistlab.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(twistlab, name)]
    assert not missing, missing
