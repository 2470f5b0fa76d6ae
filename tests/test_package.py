import mublp


def test_every_public_name_resolves():
    assert len(set(mublp.__all__)) == len(mublp.__all__)
    missing = [name for name in mublp.__all__ if not hasattr(mublp, name)]
    assert missing == []
