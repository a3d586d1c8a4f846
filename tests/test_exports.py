import wavecnn


def test_every_exported_name_resolves():
    """A name dropped from the package cannot linger in ``__all__``."""
    assert len(set(wavecnn.__all__)) == len(wavecnn.__all__)
    missing = [name for name in wavecnn.__all__ if not hasattr(wavecnn, name)]
    assert missing == []
