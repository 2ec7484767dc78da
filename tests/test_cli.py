"""Exit codes and end-to-end command pipeline."""
import hashlib
import os
from pathlib import Path

import pytest

import sunet.training
from sunet.arch import build_classifier, toy_config
from sunet.cli import main
from sunet.graph import GRAPH_HEADER, NetworkGraph
from sunet.io import read_pgm
from sunet.runtime import Network
from sunet.training import save_checkpoint


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_no_command_exits_1(capsys):
    rc, _, _ = run(capsys)
    assert rc == 1


def test_unknown_flag_exits_1(capsys):
    rc, _, err = run(capsys, "analyze", "--preset", "sunet64", "--frobnicate")
    assert rc == 1


def test_unknown_preset_exits_1(capsys):
    rc, _, _ = run(capsys, "analyze", "--preset", "sunet999")
    assert rc == 1


def test_missing_graph_file_exits_2(capsys):
    rc, _, err = run(capsys, "analyze", "--graph", "/no/such/file.graph")
    assert rc == 2
    assert "no such graph file" in err


def test_bad_config_exits_1(capsys):
    rc, _, err = run(capsys, "analyze", "--toy", "0", "--input-hw", "64")
    assert rc == 1
    assert "error:" in err


# a size is N, HxW or H,W: no empty part stands for a number
@pytest.mark.parametrize("size", ["3x", "x3", "64x64x", "3,,4"])
def test_malformed_size_exits_1(capsys, size):
    rc, _, err = run(capsys, "analyze", "--toy", "8", "--input-hw", size)
    assert rc == 1
    assert f"bad size {size!r}" in err


def test_analyze_report(capsys):
    rc, out, _ = run(capsys, "analyze", "--preset", "sunet64",
                     "--input-hw", "224")
    assert rc == 0
    assert "params total: 6894504" in out
    assert "params ≈ 6.9M" in out
    assert "trace: 112 56 56 28 28 14 14 7 7 1" in out
    assert "layers (conv+tconv+fc): 110" in out


def test_analyze_csv(tmp_path, capsys):
    path = str(tmp_path / "report.csv")
    rc, _, _ = run(capsys, "analyze", "--toy", "8", "--input-hw", "64",
                   "--csv", path)
    assert rc == 0
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "node,kind,out_c,out_h,out_w,params,rf_h,rf_w,jump_h,jump_w"
    graph = build_classifier(toy_config(8), input_hw=(64, 64))
    assert [line.split(",")[0] for line in lines[1:]] == [n.name for n in graph.nodes]


def test_analyze_graph_at_another_input_size(tmp_path, capsys):
    path = str(tmp_path / "g.graph")
    run(capsys, "build", "--toy", "8", "--out", path)
    rc, out, _ = run(capsys, "analyze", "--graph", path, "--input-hw", "96")
    assert rc == 0
    assert "input: 3x96x96" in out
    assert "trace: 48 24 24 12 12 6 6 3 3 1" in out
    # a graph stores no extent: analyze defaults to 224x224
    rc, out, _ = run(capsys, "analyze", "--graph", path)
    assert "input: 3x224x224" in out


def test_build_round_trip(tmp_path, capsys):
    path = str(tmp_path / "g.graph")
    rc, out, _ = run(capsys, "build", "--toy", "8", "--out", path)
    assert rc == 0
    text = Path(path).read_text()
    g = NetworkGraph.parse(text)
    assert g.serialize() == text
    assert g.digest[:12] in out


# graph files whose digest is valid but whose content is not
CONV = "node c1 conv in=input cin=3 cout=8 d=1x1 k=3x3 p=1x1 s=1x1\n"


BN = "node b1 bn_relu in=input c=3\n"


@pytest.mark.parametrize("input_line,node_line,message", [
    ("input c=3", "node c1\n", "line 3: node line needs a name and a kind"),
    ("input c=3", CONV.replace("cin=3 ", ""), "node 'c1': conv needs attribute 'cin'"),
    # a graph stores no input extent
    ("input c=3 h=16", CONV, "line 2: input line has no key 'h'"),
    ("input c=3", CONV.replace("in=input", "input"),
     "line 3: token 'input' is not key=value"),
    ("input c=3", CONV.replace("in=input ", ""),
     "node 'c1': conv takes 1 input(s), got 0"),
    ("input c=3", CONV.replace("in=input", "in=input,input"),
     "node 'c1': conv takes 1 input(s), got 2"),
    ("input c=3", CONV + "node a1 add in=c1\n",
     "node 'a1': add takes 2 input(s), got 1"),
    ("input c=3", CONV.replace("k=3x3", "k=3"),
     "node 'c1': attribute 'k' must be a pair of positive integers, got 3"),
    ("input c=3", CONV.replace("s=1x1", "s=0x0"),
     "node 'c1': attribute 's' must be a pair of positive integers, got (0, 0)"),
    ("input c=3", CONV.replace("cout=8", "cout=0"),
     "node 'c1': attribute 'cout' must be a positive integer, got 0"),
    # no kind or tag takes a float: the raw token fails its form check
    ("input c=3", CONV.replace("cout=8", "cout=2.5"),
     "node 'c1': attribute 'cout' must be a positive integer, got '2.5'"),
    # a bias-free conv has one spelling: no bias attribute
    ("input c=3", CONV.replace("\n", " bias=0\n"),
     "node 'c1': attribute 'bias' must be 1, got 0"),
    # a bn_relu runs at batchnorm's own decay and eps and states neither
    ("input c=3", BN.replace("\n", " decay=nan\n"),
     "node 'b1': bn_relu has no attribute 'decay'"),
    ("input c=3", BN.replace("\n", " eps=-1\n"),
     "node 'b1': bn_relu has no attribute 'eps'"),
    ("input c=3", CONV + BN.replace("in=input c=3", "in=c1 c=5"),
     "node 'b1': expects 5 channels, got 8"),
    ("input c=3", "node g1 grid_mask in=input keep=0 period=2\n",
     "node 'g1': attribute 'keep' must be a positive integer, got 0"),
    ("input c=3", "node g1 grid_mask in=input keep=3 period=2\n",
     "node 'g1': attribute 'keep' must be at most period 2, got 3"),
    ("input c=3", CONV + CONV.replace("c1 conv in=input", "c2 conv in=c1")
     .replace("cin=3", "cin=8").replace("\n", " level=abc\n"),
     "node 'c2': tag 'level' must be a non-negative integer, got 'abc'"),
    ("input c=3", CONV.replace("\n", " role=main\n"),
     "node 'c1': tag 'role' must be 'skip', got 'main'"),
    ("input c=3", CONV.replace("d=1x1", "dilation=2x2 d=1x1"),
     "node 'c1': conv has no attribute 'dilation'"),
], ids=["node-name-only", "conv-without-cin", "input-with-an-extent", "bare-token",
        "conv-without-input", "conv-with-two-inputs", "add-with-one-input",
        "int-kernel", "zero-stride", "zero-cout", "float-cout", "conv-bias-zero", "nan-decay", "negative-eps",
        "bn-channels-differ", "zero-keep", "keep-above-period", "level-not-an-int", "role-not-skip",
        "unknown-attribute"])
def test_malformed_graph_file_exits_1(tmp_path, capsys, input_line, node_line,
                                      message):
    body = f"{GRAPH_HEADER}\n{input_line}\n{node_line}"
    path = tmp_path / "bad.graph"
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    rc, _, err = run(capsys, "analyze", "--graph", str(path))
    assert rc == 1
    assert f"error: {message}" in err


def test_tconv_with_bias_exits_1(tmp_path, capsys):
    # builder graphs write bias only on the convs that have one; bias=1
    # on a tconv names the node and the attribute
    g = build_classifier(toy_config(8), input_hw=(64, 64))
    text = g.serialize()
    assert [ln.split()[1] for ln in text.splitlines() if " bias=" in ln] == ["head.fc"]
    line = next(ln for ln in text.splitlines() if " tconv " in ln)
    path = tmp_path / "bias.graph"
    body = text.replace(line, line + " bias=1").rsplit("digest ", 1)[0]
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    rc, _, err = run(capsys, "analyze", "--graph", str(path))
    assert rc == 1
    name = line.split()[1]
    assert f"error: node {name!r}: tconv has no attribute 'bias'" in err


def test_format_2_graph_file_exits_1_naming_its_version(tmp_path, capsys):
    # a well-formed file of the format that stored the input extent; its
    # digest is valid, its version is not read
    body = "sunet-graph 2\ninput c=3 h=16 w=16\n" + CONV + "node b1 bn_relu in=c1 c=8\n"
    path = tmp_path / "old.graph"
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    rc, out, err = run(capsys, "analyze", "--graph", str(path))
    assert rc == 1
    assert out == ""
    assert err == ("error: graph format 2 is not read, only format 3: rebuild "
                   "the graph with suncli build or suncli convert\n")


def test_convert_degridding_layout(tmp_path, capsys):
    path = str(tmp_path / "seg.graph")
    rc, _, _ = run(capsys, "convert", "--preset", "sunet7_128",
                   "--output-stride", "8",
                   "--degridding", "--classes", "21", "--out", path)
    assert rc == 0
    g = NetworkGraph.parse(Path(path).read_text())
    d1, d2 = g.by_name["deg1.conv"].attrs, g.by_name["deg2.conv"].attrs
    assert d1["d"] == (2, 2) and d1["cout"] == 512
    assert d2["d"] == (1, 1) and d2["cout"] == 512
    assert g.by_name["cls.conv"].attrs["cout"] == 21
    assert g.meta["output_stride"] == "8"


@pytest.mark.parametrize("cmd", ["build", "convert"])
def test_build_and_convert_take_no_input_extent(tmp_path, capsys, cmd):
    # a graph runs at any size and stores none; only analyze takes one
    rc, _, err = run(capsys, cmd, "--toy", "8", "--input-hw", "64",
                     "--out", str(tmp_path / "g.graph"))
    assert rc == 1
    assert "unrecognized arguments: --input-hw 64" in err
    assert not (tmp_path / "g.graph").exists()


def test_convert_to_stdout(capsys):
    rc, out, _ = run(capsys, "convert", "--toy", "8")
    assert rc == 0
    assert NetworkGraph.parse(out).meta["kind"] == "segmentation"


def test_gen_data_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (a, b):
        rc, out, _ = run(capsys, "gen-data", "--out", d, "--count", "5",
                         "--canvas", "32", "--seed", "11")
        assert rc == 0
        assert "wrote 5 pairs" in out
    def snapshot(root):
        out = {}
        for base, _, files in os.walk(root):
            for f in files:
                p = os.path.join(base, f)
                out[os.path.relpath(p, root)] = Path(p).read_bytes()
        return out

    assert snapshot(a) == snapshot(b)
    rc, _, _ = run(capsys, "gen-data", "--out", str(tmp_path / "c"),
                   "--count", "5", "--canvas", "32", "--seed", "12")
    assert rc == 0
    assert snapshot(a) != snapshot(str(tmp_path / "c"))


# bad values are validation errors (exit 1), not I/O errors (exit 2)
@pytest.mark.parametrize("flags,message", [
    (["--classes", "1"], "need at least 2 classes"),
    (["--void-border", "-1"], "negative void border"),
    (["--count", "-1"], "negative count"),
    (["--noise", "nan"], "noise nan outside"),
    (["--noise", "inf"], "noise inf outside"),
    (["--noise", "-1"], "noise -1.0 outside"),
], ids=["classes", "void-border", "count", "noise-nan", "noise-inf", "noise-negative"])
def test_gen_data_bad_value_exits_1(tmp_path, capsys, flags, message):
    rc, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                     "--count", "2", *flags)
    assert rc == 1
    assert message in err
    assert not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> build -> convert -> train, shared by the e2e tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = str(root / "data")
    clf = str(root / "clf.graph")
    seg = str(root / "seg.graph")
    out = str(root / "run")
    assert main(["gen-data", "--out", data, "--count", "6",
                 "--canvas", "64", "--classes", "3", "--seed", "5"]) == 0
    assert main(["build", "--toy", "8", "--out", clf]) == 0
    assert main(["convert", "--graph", clf, "--classes", "3",
                 "--output-stride", "16", "--out", seg]) == 0
    assert main(["train", "--graph", seg,
                 "--data", os.path.join(data, "manifest.json"),
                 "--out", out, "--iters", "3", "--batch-size", "2",
                 "--no-augment", "--seed", "1"]) == 0
    return {"root": root, "data": data, "clf": clf, "seg": seg, "out": out,
            "ckpt": os.path.join(out, "checkpoint.sunc"),
            "manifest": os.path.join(data, "manifest.json")}


def test_train_outputs(pipeline, capsys):
    capsys.readouterr()
    assert os.path.exists(pipeline["ckpt"])
    lines = Path(pipeline["out"], "loss.csv").read_text().strip()
    assert lines.split("\n")[0] == "iter,lr,loss"
    assert len(lines.split("\n")) == 4


def test_train_crop_off_the_graph_size(pipeline, tmp_path, capsys):
    # the pipeline's images are 64x64
    out = tmp_path / "run"
    rc, _, _ = run(capsys, "train", "--graph", pipeline["seg"],
                   "--data", pipeline["manifest"], "--out", str(out),
                   "--iters", "2", "--batch-size", "2", "--crop", "48x40",
                   "--seed", "2")
    assert rc == 0
    assert len((out / "loss.csv").read_text().strip().split("\n")) == 3


def test_train_default_crop_is_the_first_image_extent(tmp_path, capsys, monkeypatch):
    # gen-data's default canvas is 96x96, and so is each training sample
    data, clf, seg = (str(tmp_path / name) for name in ("data", "clf.graph", "seg.graph"))
    assert main(["gen-data", "--out", data, "--count", "2"]) == 0
    assert main(["build", "--toy", "8", "--out", clf]) == 0
    assert main(["convert", "--graph", clf, "--classes", "4", "--output-stride", "32",
                 "--out", seg]) == 0
    shapes = []

    def spy(img, mask, *args):
        img, mask = augment_sample(img, mask, *args)
        shapes.append((img.shape, mask.shape))
        return img, mask

    augment_sample = sunet.training.augment_sample
    monkeypatch.setattr(sunet.training, "augment_sample", spy)
    rc, _, _ = run(capsys, "train", "--graph", seg, "--data",
                   os.path.join(data, "manifest.json"), "--out", str(tmp_path / "run"),
                   "--iters", "1", "--batch-size", "2")
    assert rc == 0
    assert shapes == [((3, 96, 96), (96, 96))] * 2


def test_eval_prints_miou(pipeline, tmp_path, capsys):
    csv = str(tmp_path / "m.csv")
    rc, out, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"],
                     "--scales", "1.0", "--csv", csv)
    assert rc == 0
    assert "mIoU:" in out
    rows = Path(csv).read_text().strip().split("\n")
    assert rows[0] == "class,iou"
    assert rows[-1].startswith("miou,")
    float(rows[-1].split(",")[1])


def test_eval_multi_scale_flip(pipeline, capsys):
    rc, out, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"],
                     "--scales", "0.5,1.0", "--flip")
    assert rc == 0
    assert "mIoU:" in out


@pytest.mark.parametrize("flags,message", [
    (["--max-rotate", "inf"], "bad max_rotate inf"),
    (["--scale-range", "0.5,inf"], "bad scale range"),
], ids=["max-rotate", "scale-range"])
def test_train_bad_augment_value_exits_1(pipeline, tmp_path, capsys, flags,
                                         message):
    rc, _, err = run(capsys, "train", "--graph", pipeline["seg"],
                     "--data", pipeline["manifest"], "--out", str(tmp_path / "run"),
                     "--iters", "1", *flags)
    assert rc == 1
    assert message in err


@pytest.mark.parametrize("flags,message", [
    (["--lr", "nan"], "lr0 nan outside"),
    (["--lr", "inf"], "lr0 inf outside"),
    (["--lr", "-0.1"], "lr0 -0.1 outside"),
    (["--weight-decay", "nan"], "weight_decay nan outside"),
    (["--weight-decay", "inf"], "weight_decay inf outside"),
    (["--step-factor", "nan"], "step_factor nan outside"),
    (["--schedule", "step", "--step-every", "1", "--step-factor", "inf"],
     "step_factor inf outside"),
], ids=["lr-nan", "lr-inf", "lr-negative", "weight-decay-nan",
        "weight-decay-inf", "step-factor-nan", "step-factor-inf"])
def test_train_bad_optimizer_value_exits_1(pipeline, tmp_path, capsys, flags,
                                           message):
    out = tmp_path / "run"
    rc, _, err = run(capsys, "train", "--graph", pipeline["seg"],
                     "--data", pipeline["manifest"], "--out", str(out),
                     "--iters", "1", "--no-augment", *flags)
    assert rc == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "infer"])
def test_non_finite_scale_exits_1(pipeline, tmp_path, capsys, cmd):
    extra = ["--out", str(tmp_path / "pred")] if cmd == "infer" else []
    rc, _, err = run(capsys, cmd, "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"], "--scales", "1.0,inf", *extra)
    assert rc == 1
    assert "scale inf is not finite" in err


def test_infer_writes_predictions(pipeline, tmp_path, capsys):
    out_dir = str(tmp_path / "pred")
    rc, out, _ = run(capsys, "infer", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"], "--out", out_dir)
    assert rc == 0
    files = sorted(os.listdir(out_dir))
    assert files == [f"pred_{i:05d}.pgm" for i in range(6)]
    pred = read_pgm(os.path.join(out_dir, files[0]))
    assert pred.shape == (64, 64)
    assert pred.max() < 3


def test_dump_activations_levels(pipeline, tmp_path, capsys):
    out_dir = str(tmp_path / "acts")
    rc, out, _ = run(capsys, "dump-activations", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"], "--index", "0",
                     "--out", out_dir)
    assert rc == 0
    files = os.listdir(out_dir)
    assert any(f.startswith("level") and f.endswith(".pgm") for f in files)
    assert "prediction.pgm" in files and "activations.sunc" in files


def test_dump_activations_bad_index(pipeline, capsys):
    rc, _, err = run(capsys, "dump-activations", "--graph", pipeline["seg"],
                     "--data", pipeline["manifest"], "--index", "99",
                     "--out", "/tmp/unused")
    assert rc == 1
    assert "index 99" in err


# the pipeline's data has 3 classes; convert makes 21 without --classes
@pytest.mark.parametrize("classes", [None, "2"], ids=["default-21", "two"])
@pytest.mark.parametrize("cmd", ["train", "eval", "infer"])
def test_graph_classes_differ_from_the_data_exits_1(pipeline, tmp_path, capsys,
                                                     cmd, classes):
    graph = str(tmp_path / "seg.graph")
    assert main(["convert", "--graph", pipeline["clf"], "--output-stride", "16",
                 "--out", graph, *(["--classes", classes] if classes else [])]) == 0
    ckpt = str(tmp_path / "init.sunc")
    save_checkpoint(ckpt, Network(NetworkGraph.parse(Path(graph).read_text())))
    pred = tmp_path / "pred"
    extra = {"train": ["--out", str(tmp_path / "run"), "--iters", "1", "--batch-size", "2"],
             "eval": ["--checkpoint", ckpt],
             "infer": ["--checkpoint", ckpt, "--out", str(pred)]}[cmd]
    rc, _, err = run(capsys, cmd, "--graph", graph, "--data", pipeline["manifest"], *extra)
    assert rc == 1
    assert f"graph outputs {classes or 21} classes, dataset has 3" in err
    assert not list(pred.glob("*.pgm"))     # infer fails before it writes a map


def test_graph_without_upsample_evaluates_but_does_not_train(pipeline, tmp_path,
                                                             capsys):
    # --no-upsample keeps the logits at feature resolution, 4x4 of the
    # 64x64 images at OS16: the labels of a training step cannot match
    graph = str(tmp_path / "seg.graph")
    assert main(["convert", "--graph", pipeline["clf"], "--classes", "3",
                 "--output-stride", "16", "--no-upsample", "--out", graph]) == 0
    run_dir = tmp_path / "run"
    rc, _, err = run(capsys, "train", "--graph", graph, "--data", pipeline["manifest"],
                     "--out", str(run_dir), "--iters", "1", "--batch-size", "2")
    assert rc == 1
    assert err == ("error: output node 'cls.conv' is 4x4 at the training extent "
                   "64x64; a graph whose output does not keep the input extent "
                   "can be evaluated but not trained\n")
    assert not run_dir.exists()
    ckpt = str(tmp_path / "init.sunc")
    save_checkpoint(ckpt, Network(NetworkGraph.parse(Path(graph).read_text())))
    rc, out, _ = run(capsys, "eval", "--graph", graph, "--checkpoint", ckpt,
                     "--data", pipeline["manifest"], "--scales", "multi", "--flip")
    assert rc == 0
    assert "mIoU:" in out
    pred = tmp_path / "pred"
    rc, _, _ = run(capsys, "infer", "--graph", graph, "--checkpoint", ckpt,
                   "--data", pipeline["manifest"], "--out", str(pred))
    assert rc == 0
    maps = sorted(pred.glob("*.pgm"))
    assert len(maps) == 6
    assert read_pgm(str(maps[0])).shape == (64, 64)


def test_eval_checkpoint_digest_mismatch(pipeline, capsys):
    rc, _, err = run(capsys, "eval", "--graph", pipeline["clf"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"])
    assert rc == 1
    assert "bound to graph" in err


def test_data_root_env(pipeline, monkeypatch, capsys):
    monkeypatch.setenv("SUNET_DATA_ROOT", pipeline["data"])
    rc, out, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"])
    assert rc == 0
    assert "mIoU:" in out


def test_data_root_unset(pipeline, monkeypatch, capsys):
    monkeypatch.delenv("SUNET_DATA_ROOT", raising=False)
    rc, _, err = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"])
    assert rc == 1
    assert "SUNET_DATA_ROOT" in err


def test_missing_data_manifest_exits_2(pipeline, capsys):
    rc, _, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                   "--checkpoint", pipeline["ckpt"],
                   "--data", "/no/such/manifest.json")
    assert rc == 2
