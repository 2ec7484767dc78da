import pytest

from sunet.graph import GraphError, NetworkGraph


def small_graph():
    g = NetworkGraph(3, (16, 16))
    g.add("c1", "conv", ["input"], cin=3, cout=8, k=(3, 3), s=(2, 2),
          d=(1, 1), p=(1, 1), bias=False, stage="conv1", level=1)
    g.add("b1", "bn", ["c1"], c=8, decay=0.99, eps=1e-5)
    g.add("r1", "relu", ["b1"])
    g.meta["kind"] = "test"
    return g


def test_serialize_parse_round_trip_bytes():
    g = small_graph()
    text = g.serialize()
    g2 = NetworkGraph.parse(text)
    assert g2.serialize() == text
    assert g2.digest == g.digest
    assert [n.name for n in g2.nodes] == [n.name for n in g.nodes]
    assert g2.by_name["c1"].attrs == g.by_name["c1"].attrs
    assert g2.by_name["c1"].tags == {"stage": "conv1", "level": 1}


def test_digest_detects_tampering():
    text = small_graph().serialize()
    bad = text.replace("cout=8", "cout=9")
    with pytest.raises(GraphError):
        NetworkGraph.parse(bad)


def test_parse_rejects_bad_header():
    with pytest.raises(GraphError):
        NetworkGraph.parse("something else\n")


def test_duplicate_node_name_rejected():
    g = small_graph()
    with pytest.raises(GraphError):
        g.add("c1", "relu", ["r1"])


def test_unknown_kind_rejected():
    g = small_graph()
    with pytest.raises(GraphError):
        g.add("x", "pool3d", ["r1"])


def test_input_must_exist():
    g = small_graph()
    with pytest.raises(GraphError):
        g.add("x", "relu", ["nope"])


def test_tag_validation():
    g = small_graph()
    g.tag("r1", level=2)
    assert g.by_name["r1"].tags["level"] == 2
    with pytest.raises(GraphError):
        g.tag("r1", color="red")
    with pytest.raises(GraphError):
        g.tag("missing", level=1)


def test_meta_survives_round_trip():
    g = small_graph()
    g.meta["config"] = '{"name":"toy8","blocks":[1,1]}'
    g2 = NetworkGraph.parse(g.serialize())
    assert g2.meta["config"] == g.meta["config"]
    assert g2.meta["kind"] == "test"


def test_infer_shapes_tracks_stride():
    g = small_graph()
    shapes = g.infer_shapes()
    assert shapes["input"] == (3, 16, 16)
    assert shapes["c1"] == (8, 8, 8)
    assert shapes["r1"] == (8, 8, 8)


def test_tconv_restores_the_extent_of_its_second_input():
    g = small_graph()
    up = dict(cin=8, cout=3, k=(3, 3), s=(2, 2), d=(1, 1), p=(1, 1),
              bias=False)
    with pytest.raises(GraphError, match="'up'"):
        g.add("up", "tconv", ["r1"], **up)
    g.add("up", "tconv", ["r1", "input"], **up)
    for hw in [(16, 16), (15, 15), (15, 18)]:
        assert g.infer_shapes(hw)["up"] == (3, *hw)
    # a stride-2 tconv of an 8x8 map reaches 15 or 16, never 8
    g.add("bad", "tconv", ["r1", "r1"], **up)
    with pytest.raises(GraphError, match="'bad'"):
        g.infer_shapes()
