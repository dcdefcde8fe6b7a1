"""8-bit PGM serialization."""

import numpy as np
import pytest

from photonstats import ContractError, DomainError, read_pgm, write_pgm


@pytest.fixture
def image():
    rng = np.random.default_rng(6)
    return rng.integers(0, 256, size=(9, 13), dtype=np.int64)


def test_binary_round_trip(tmp_path, image):
    path = str(tmp_path / "img.pgm")
    write_pgm(path, image)
    assert np.array_equal(read_pgm(path), image)


def test_plain_round_trip(tmp_path, image):
    path = tmp_path / "img.pgm"
    rows = "\n".join(" ".join(str(v) for v in row) for row in image)
    path.write_text(f"P2\n{image.shape[1]} {image.shape[0]}\n255\n{rows}\n", encoding="ascii")
    assert np.array_equal(read_pgm(str(path)), image)


def test_comments_in_header_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n# written by hand\n2 2\n255\n0 64\n# mid-data\n128 255\n")
    got = read_pgm(str(path))
    assert np.array_equal(got, [[0, 64], [128, 255]])


def test_deep_images_rejected_on_write(tmp_path):
    with pytest.raises(DomainError):
        write_pgm(str(tmp_path / "x.pgm"), np.array([[0, 300]]))


def test_float_images_rejected_on_write(tmp_path):
    with pytest.raises(DomainError):
        write_pgm(str(tmp_path / "x.pgm"), np.array([[0.5, 0.2]]))


def test_deep_maxval_rejected_on_read(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n1024\n")
    with pytest.raises(ContractError):
        read_pgm(str(path))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ContractError, match="magic"):
        read_pgm(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ContractError):
        read_pgm(str(path))


@pytest.mark.parametrize(
    "payload",
    [
        b"P2\n2 1\n255\n7 x\n",  # not a number
        b"P2\n2 1\n255\n7 1.5\n",  # not an integer
        b"P2\n2 1\n255\n7 -3\n",  # negative
        b"P2\n2 1\n255\n7 256\n",  # past 8 bits
        b"P2\n2 1\n100\n7 101\n",  # past the header's maxval
        b"P5\n2 1\n100\n\x07\x65",  # past the header's maxval, raw
    ],
)
def test_bad_samples_rejected_naming_the_file(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(ContractError, match="bad.pgm"):
        read_pgm(str(path))


@pytest.mark.parametrize(
    "payload",
    [
        b"P2\nx 1\n255\n7\n",  # width not a number
        b"P2\n1 1.5\n255\n7\n",  # height not an integer
        b"P5\n1 1\n2x5\n\x07",  # maxval not a number
    ],
)
def test_bad_header_fields_rejected_naming_the_file(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(ContractError, match="bad.pgm"):
        read_pgm(str(path))
