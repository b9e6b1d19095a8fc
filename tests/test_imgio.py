import struct

import numpy as np
import pytest

from ccdiff import ValidationError, make_phantom
from ccdiff.imgio import (RAW_DTYPE_F64, RAW_MAGIC, load_image, read_mask, read_pgm,
                          read_raw, save_image, write_mask, write_pgm, write_raw)


def test_pgm_16bit_round_trip(tmp_path):
    img = make_phantom("ellipses", (32, 24), seed=1)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (32, 24)
    assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12


def test_pgm_8bit_round_trip(tmp_path):
    img = make_phantom("blocks", (16, 16), seed=2)
    path = tmp_path / "img8.pgm"
    write_pgm(path, img, maxval=255)
    back = read_pgm(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_header_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 0] == 0.0 and img[1, 2] == pytest.approx(5 / 255)


def test_raw_round_trip_is_lossless(tmp_path):
    arr = np.random.default_rng(3).standard_normal((7, 9))
    path = tmp_path / "a.raw"
    write_raw(path, arr)
    assert np.array_equal(read_raw(path), arr)
    assert path.stat().st_size == 16 + 7 * 9 * 8


def test_load_image_dispatches_on_magic(tmp_path):
    img = make_phantom("blocks", (8, 8), seed=4)
    write_pgm(tmp_path / "x.pgm", img)
    write_raw(tmp_path / "x.raw", img)
    assert np.allclose(load_image(tmp_path / "x.pgm"), img, atol=1e-4)
    assert np.array_equal(load_image(tmp_path / "x.raw"), img)


def test_save_image_by_extension(tmp_path):
    img = make_phantom("blocks", (8, 8), seed=5)
    save_image(tmp_path / "y.pgm", img)
    save_image(tmp_path / "y.raw", img)
    assert (tmp_path / "y.pgm").read_bytes()[:2] == b"P5"
    assert (tmp_path / "y.raw").read_bytes()[:4] == b"CCF1"


def test_mask_round_trip(tmp_path):
    mask = np.random.default_rng(6).uniform(size=(16, 16)) < 0.4
    path = tmp_path / "m.pgm"
    write_mask(path, mask)
    assert np.array_equal(read_mask(path), mask)


def test_corrupt_files_are_rejected(tmp_path):
    bad = tmp_path / "bad.raw"
    bad.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(ValidationError):
        read_raw(bad)
    with pytest.raises(ValidationError):
        load_image(bad)
    trunc = tmp_path / "t.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\0\0")
    with pytest.raises(ValidationError):
        read_pgm(trunc)
    with pytest.raises(ValidationError):
        write_pgm(tmp_path / "z.pgm", np.zeros((4, 4)), maxval=1000)
    notp5 = tmp_path / "p2.pgm"
    notp5.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValidationError):
        read_pgm(notp5)
    f32 = tmp_path / "f32.raw"
    f32.write_bytes(struct.pack("<4sIII", RAW_MAGIC, 2, 1, 1) + bytes(8))
    with pytest.raises(ValidationError, match="unsupported raw dtype code 2"):
        read_raw(f32)
    with pytest.raises(ValidationError, match="PGM images must be 2D"):
        write_pgm(tmp_path / "v.pgm", np.zeros(4))
    with pytest.raises(ValidationError, match="raw arrays must be 2D"):
        write_raw(tmp_path / "v.raw", np.zeros(4))


# A 4x4 raster under three headers that netpbm's grammar accepts: tokens
# split by any whitespace, the magic's line included, and a comment anywhere.
@pytest.mark.parametrize("header", [b"P5 4 4 255\n", b"P5\t4\t4\t255\n",
                                    b"P5 # note\n4 4\n255\n", b"P5\n4#w\n4\r255\f"])
def test_pgm_header_tokens_split_on_any_whitespace(header, tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(header + bytes(range(16)))
    assert np.array_equal(load_image(path), np.arange(16.0).reshape(4, 4) / 255)


def test_pgm_raster_starts_one_byte_after_maxval(tmp_path):
    # One space after maxval, then a raster whose first byte is a newline.
    path = tmp_path / "s.pgm"
    path.write_bytes(b"P5\n2 2\n255 " + bytes([10, 1, 2, 3]))
    assert np.array_equal(load_image(path), np.array([[10.0, 1.0], [2.0, 3.0]]) / 255)


def test_pgm_sample_above_maxval_is_refused(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 200]))
    with pytest.raises(ValidationError, match="above maxval"):
        load_image(path)
    path.write_bytes(b"P5\n1 1\n300\n" + bytes([1, 45]))
    with pytest.raises(ValidationError, match="above maxval"):
        load_image(path)


@pytest.mark.parametrize("data, message", [
    (b"P5", "truncated PGM header"),
    (b"P5\n4 4", "truncated PGM header"),
    (b"P5\n4 4\n255", "truncated PGM header"),
    (b"P5\n4 4 # to the end\n", "truncated PGM header"),
    (b"P55 4 4 255\n" + bytes(16), "not a binary PGM"),
    (b"P5\n4x 4\n255\n" + bytes(16), "non-integer"),
    (b"P5\n4 4\n255x\n" + bytes(16), "non-integer"),
    (b"P5\n4 4\n255x" + bytes(16), "truncated PGM header"),
    (b"P5\n4 4\n255\n" + bytes(15), "truncated PGM pixel data"),
    (b"P5\n1 1\n70000\n" + bytes(4), "unsupported PGM maxval 70000"),
])
def test_malformed_pgm_headers_are_refused(data, message, tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=message):
        read_pgm(path)


@pytest.mark.parametrize("data, message", [
    (b"P5\n99999999999 99999999999\n255\n", "truncated PGM pixel data"),
    (b"P5\n300000 300000\n65535\n" + bytes(64), "truncated PGM pixel data"),
    (struct.pack("<4sIII", RAW_MAGIC, RAW_DTYPE_F64, 2**31 - 1, 2**31 - 1),
     "truncated raw pixel data"),
    (struct.pack("<4sIII", RAW_MAGIC, RAW_DTYPE_F64, 2**32 - 1, 2**32 - 1) + bytes(8),
     "truncated raw pixel data"),
], ids=["pgm-beyond-int64", "pgm-180-GB", "raw-2^31", "raw-2^32"])
def test_a_header_claiming_more_pixels_than_the_file_holds_is_refused(
        data, message, tmp_path):
    # Refused from the file's size before any read: a raster this large would
    # overflow the read's size or fail to allocate.
    path = tmp_path / "huge"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=message):
        load_image(path)


# ----------------------------- properties ----------------------------------


def _hypothesis():
    return pytest.importorskip("hypothesis"), pytest.importorskip("hypothesis.strategies")


def _images(st):
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return shapes.flatmap(lambda shape: st.lists(
        st.floats(0.0, 1.0), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
    ).map(lambda flat: np.array(flat).reshape(shape)))


def test_pgm_round_trip_property(tmp_path):
    hyp, st = _hypothesis()
    path = tmp_path / "p.pgm"

    @hyp.settings(max_examples=100, deadline=None, database=None)
    @hyp.given(_images(st), st.sampled_from([255, 65535]))
    def check(image, maxval):
        write_pgm(path, image, maxval=maxval)
        back = read_pgm(path)
        assert back.shape == image.shape
        assert np.max(np.abs(back - image)) <= 0.5 / maxval + 1e-12
        # The written codes come back exactly.
        write_pgm(tmp_path / "again.pgm", back, maxval=maxval)
        assert (tmp_path / "again.pgm").read_bytes() == path.read_bytes()

    check()


def test_raw_round_trip_property(tmp_path):
    hyp, st = _hypothesis()
    path = tmp_path / "r.raw"
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))

    @hyp.settings(max_examples=100, deadline=None, database=None)
    @hyp.given(shapes.flatmap(lambda s: st.lists(
        st.floats(allow_nan=True, allow_infinity=True),
        min_size=s[0] * s[1], max_size=s[0] * s[1]).map(lambda f: np.array(f).reshape(s))))
    def check(array):
        write_raw(path, array)
        assert read_raw(path).tobytes() == array.tobytes()

    check()


def test_pgm_header_grammar_property(tmp_path):
    # Any whitespace between tokens, comments in it, and one whitespace byte
    # (which may be followed by a whitespace raster byte) before the raster.
    hyp, st = _hypothesis()
    path = tmp_path / "g.pgm"
    space = st.sampled_from([b" ", b"\t", b"\n", b"\v", b"\f", b"\r"])
    comment = st.binary(max_size=6).filter(
        lambda b: b"\n" not in b and b"\r" not in b).map(lambda b: b"#" + b + b"\n")
    gap = st.lists(st.one_of(space, comment), min_size=1, max_size=4).map(b"".join)

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(st.data())
    def check(data):
        W, H = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        maxval = data.draw(st.integers(1, 65535))
        codes = np.array(data.draw(st.lists(st.integers(0, maxval), min_size=H * W,
                                            max_size=H * W)))
        raster = codes.astype(">u2" if maxval > 255 else np.uint8).tobytes()
        header = b"P5" + b"".join(data.draw(gap) + str(v).encode() for v in (W, H, maxval))
        path.write_bytes(header + data.draw(space) + raster)
        assert np.array_equal(read_pgm(path), codes.reshape(H, W) / maxval)

    check()


def test_truncated_files_are_refused_property(tmp_path):
    # Every proper prefix of a written file, header or raster cut, is refused.
    hyp, st = _hypothesis()
    pgm, raw, cut = tmp_path / "t.pgm", tmp_path / "t.raw", tmp_path / "cut"

    @hyp.settings(max_examples=50, deadline=None, database=None)
    @hyp.given(_images(st), st.sampled_from([255, 65535]), st.data())
    def check(image, maxval, data):
        write_pgm(pgm, image, maxval=maxval)
        write_raw(raw, image)
        for whole, read in ((pgm.read_bytes(), read_pgm), (raw.read_bytes(), read_raw)):
            cut.write_bytes(whole[:data.draw(st.integers(0, len(whole) - 1))])
            with pytest.raises(ValidationError):
                read(cut)

    check()
