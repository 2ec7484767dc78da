import json
import os

import numpy as np
import pytest

from sunet.data import (Dataset, SyntheticSpec, generate_synthetic,
                        load_manifest, normalize_image)
from sunet.io import DataError, read_pgm, write_pgm


def test_count_zero_gives_empty_manifest(tmp_path):
    man = generate_synthetic(SyntheticSpec(seed=1), 0, tmp_path / "d")
    assert len(man) == 0
    reloaded = load_manifest(tmp_path / "d" / "manifest.json")
    assert len(reloaded) == 0


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_fixed_seed_regenerates_byte_identical(tmp_path):
    spec = SyntheticSpec(canvas_hw=(32, 32), classes=3, seed=9)
    generate_synthetic(spec, 6, tmp_path / "a")
    generate_synthetic(spec, 6, tmp_path / "b")
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for k in a:
        assert a[k] == b[k], k


def test_different_seed_changes_pixels(tmp_path):
    generate_synthetic(SyntheticSpec(canvas_hw=(32, 32), seed=1), 2, tmp_path / "a")
    generate_synthetic(SyntheticSpec(canvas_hw=(32, 32), seed=2), 2, tmp_path / "b")
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert any(a[k] != b[k] for k in a if k.endswith(".ppm"))


def test_class_histogram_matches_mask_rescan(tmp_path):
    spec = SyntheticSpec(canvas_hw=(48, 48), classes=4, seed=3)
    man = generate_synthetic(spec, 10, tmp_path / "d")
    stored = json.load(open(tmp_path / "d" / "manifest.json"))["class_pixels"]
    counts = np.zeros(4, dtype=np.int64)
    for i in range(len(man)):
        mask = read_pgm(man.mask_path(i))
        counts += np.bincount(mask.ravel(), minlength=4)[:4]
    assert stored == counts.tolist()


def test_masks_use_all_classes_eventually(tmp_path):
    spec = SyntheticSpec(canvas_hw=(48, 48), classes=4, shapes_per_image=(2, 3), seed=0)
    man = generate_synthetic(spec, 20, tmp_path / "d")
    seen = set()
    for i in range(len(man)):
        seen |= set(np.unique(read_pgm(man.mask_path(i))).tolist())
    assert seen == {0, 1, 2, 3, 255}


def test_manifest_missing_file_rejected(tmp_path):
    man = generate_synthetic(SyntheticSpec(seed=1), 2, tmp_path / "d")
    os.remove(man.mask_path(1))
    with pytest.raises(DataError):
        load_manifest(tmp_path / "d" / "manifest.json")


def test_manifest_bad_json_rejected(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("{not json")
    with pytest.raises(DataError):
        load_manifest(p)


@pytest.mark.parametrize("ignore", [2, 0, 3, -1, 256, 300])
def test_manifest_ignore_index_outside_classes_and_byte_rejected(tmp_path, ignore):
    generate_synthetic(SyntheticSpec(canvas_hw=(24, 24), classes=4, seed=1), 1,
                       tmp_path / "d")
    path = tmp_path / "d" / "manifest.json"
    doc = json.loads(path.read_text())
    doc["ignore_index"] = ignore
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        load_manifest(path)
    assert str(path) in str(err.value)
    assert "ignore_index" in str(err.value)


@pytest.mark.parametrize("field,value", [("classes", "four"), ("ignore_index", "x"),
                                         ("classes", 4.9), ("ignore_index", 254.5),
                                         ("classes", "4")])
def test_manifest_non_integer_field_names_the_manifest(tmp_path, field, value):
    generate_synthetic(SyntheticSpec(canvas_hw=(24, 24), classes=4, seed=1), 1,
                       tmp_path / "d")
    path = tmp_path / "d" / "manifest.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="malformed manifest") as err:
        load_manifest(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("ignore", [4, 254, 255])
def test_manifest_ignore_index_in_range_loads(tmp_path, ignore):
    generate_synthetic(SyntheticSpec(canvas_hw=(24, 24), classes=4, seed=1), 1,
                       tmp_path / "d")
    path = tmp_path / "d" / "manifest.json"
    doc = json.loads(path.read_text())
    doc["ignore_index"] = ignore
    path.write_text(json.dumps(doc))
    assert load_manifest(path).ignore_index == ignore


def test_dataset_names_mismatched_entry(tmp_path):
    man = generate_synthetic(SyntheticSpec(canvas_hw=(24, 24), seed=1), 2,
                             tmp_path / "d")
    # shrink one mask so the pair disagrees
    write_pgm(man.mask_path(1), np.zeros((12, 24), dtype=np.uint8))
    with pytest.raises(DataError) as err:
        Dataset(man)
    assert "entry 1" in str(err.value)
    assert "size mismatch" in str(err.value)


def test_dataset_names_mask_with_out_of_range_label(tmp_path):
    man = generate_synthetic(SyntheticSpec(canvas_hw=(24, 24), seed=1), 3,
                             tmp_path / "d")
    mask = read_pgm(man.mask_path(2))
    assert mask.max() == 255  # the void ring is valid
    mask[5, 7], mask[9, 1] = 7, 9
    write_pgm(man.mask_path(2), mask)
    with pytest.raises(DataError) as err:
        Dataset(man)
    msg = str(err.value)
    assert "entry 2" in msg and man.mask_path(2) in msg
    assert "label 7 outside [0, 4)" in msg


def test_dataset_loads_images_chw(tmp_path):
    man = generate_synthetic(SyntheticSpec(canvas_hw=(24, 30), seed=1), 3,
                             tmp_path / "d")
    ds = Dataset(man)
    assert len(ds) == 3
    assert ds.images[0].shape == (3, 24, 30)
    assert ds.images[0].dtype == np.uint8
    assert ds.masks[0].shape == (24, 30)
    assert ds.classes == 4


def assert_spec_rejected(**bad):
    """The error a bad spec raises: a ValueError, not a DataError, which
    is kept for bad file content."""
    with pytest.raises(ValueError) as err:
        SyntheticSpec(**bad)
    assert not isinstance(err.value, DataError)


def test_spec_validation():
    assert_spec_rejected(classes=1)
    assert_spec_rejected(canvas_hw=(8, 8))
    assert_spec_rejected(shapes_per_image=(3, 1))


def test_normalize_image_range():
    u8 = np.array([0, 127, 128, 255], dtype=np.uint8).reshape(1, 2, 2)
    x = normalize_image(u8)
    assert x.dtype == np.float32
    assert x.min() >= -1.0 and x.max() <= 1.0
    assert x.reshape(-1)[0] == pytest.approx(-1.0)
    assert x.reshape(-1)[3] == pytest.approx(1.0)


def test_void_ring_wraps_every_shape(tmp_path):
    spec = SyntheticSpec(canvas_hw=(48, 48), classes=4, void_border=2, seed=5)
    man = generate_synthetic(spec, 5, tmp_path / "d")
    saw_ring = False
    for i in range(len(man)):
        mask = read_pgm(man.mask_path(i))
        ring = mask == 255
        if not ring.any():
            continue
        saw_ring = True
        # adjacent labelled pixels never disagree once the ring is cut out
        lab = np.where(ring, 255, mask).astype(np.int64)
        horiz = (lab[:, 1:] != lab[:, :-1]) & (lab[:, 1:] != 255) & (lab[:, :-1] != 255)
        vert = (lab[1:] != lab[:-1]) & (lab[1:] != 255) & (lab[:-1] != 255)
        assert not horiz.any() and not vert.any()
    assert saw_ring


def test_void_border_zero_keeps_masks_dense(tmp_path):
    spec = SyntheticSpec(canvas_hw=(48, 48), classes=4, void_border=0, seed=5)
    man = generate_synthetic(spec, 3, tmp_path / "d")
    for i in range(len(man)):
        assert not (read_pgm(man.mask_path(i)) == 255).any()


def test_void_border_validation():
    assert_spec_rejected(void_border=-1)
