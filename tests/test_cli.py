"""Command-line interface tests (exit codes, output shapes, seeding)."""

import copy
import json
import os
import subprocess
import sys

import pytest

from snapnet import cli, interp, lang, opt, rulegen, simnet, topo, values
from snapnet.shape import Tagged

from conftest import TOPO_DIR, policy_path
from helpers import SEEN_FROM_PORT_1, two_port_line

TOPO = os.path.join(TOPO_DIR, "example12.json")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_deps_command(tmp_path, capsys):
    dot = tmp_path / "deps.dot"
    code, out, _ = run_cli(["deps", "-p", policy_path("dns-tunnel-detect"),
                            "--dot", str(dot)], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["groups"] == [["orphan"], ["susp-client"], ["blacklist"]]
    assert ["orphan", "susp-client"] in d["dep"]
    assert d["tied"] == []
    assert dot.read_text().startswith("digraph deps {\n")
    assert '  "orphan" -> "susp-client";\n' in dot.read_text()
    code, out, _ = run_cli(["deps", "-p", policy_path("many-ip-domains")],
                           capsys)
    assert code == 0
    assert json.loads(out)["tied"] == [["domain-ip-pair", "num-of-domains"]]


def test_map_command(capsys):
    code, out, _ = run_cli(["map", "-p", policy_path("dns-tunnel-detect"),
                            "-p", policy_path("assign-egress"),
                            "-p", policy_path("assumption"),
                            "-t", TOPO], capsys)
    assert code == 0
    flows = json.loads(out)["flows"]
    by_key = {(r["u"], r["v"]): r["states"] for r in flows}
    assert by_key[(1, 6)] == ["orphan", "susp-client", "blacklist"]


def test_xfdd_command_writes_dot(tmp_path, capsys):
    """`xfdd` writes the diagram's dot text to -o, or else to stdout."""
    dot = tmp_path / "d.dot"
    code, _, _ = run_cli(["xfdd", "-p", policy_path("stateful-fw"),
                          "-o", str(dot)], capsys)
    assert code == 0
    assert dot.read_text().startswith("digraph")
    code, out, _ = run_cli(["xfdd", "-p", policy_path("stateful-fw")],
                           capsys)
    assert code == 0 and out == dot.read_text()


def test_compile_simulate_check_pipeline(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    code, out, err = run_cli(
        ["compile", "-p", policy_path("dns-tunnel-detect"),
         "-p", policy_path("assign-egress"),
         "-p", policy_path("assumption"),
         "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["exact"] is True
    assert set(info["placement"]) == {"orphan", "susp-client", "blacklist"}
    assert "P5 MILP solving" in err  # phase timings go to stderr
    assert "warning" not in err  # no link is loaded beyond its capacity

    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({
        "port": 1, "packet": {"inport": 1, "outport": 1,
                              "srcip": "10.0.1.10", "dstip": "10.0.6.10",
                              "srcport": 53, "dstport": 53,
                              "dns-rdata": "10.0.3.10"}}) + "\n")
    code, out, _ = run_cli(["simulate", "--bundle", str(bundle),
                            "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 0
    emitted = [json.loads(l) for l in out.splitlines()]
    assert emitted and all(e["port"] == 6 for e in emitted)

    code, out, _ = run_cli(["check", "--bundle", str(bundle),
                            "--topo", TOPO,
                            "-p", policy_path("dns-tunnel-detect"),
                            "-p", policy_path("assign-egress"),
                            "-p", policy_path("assumption")], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_compile_error_exit_code_names_variable(tmp_path, capsys):
    out = tmp_path / "should-not-exist"
    code, _, err = run_cli(
        ["compile", "-p", policy_path("conflict-parallel-write"),
         "-t", TOPO, "-o", str(out)], capsys)
    assert code == 1
    assert "'s'" in err
    assert not out.exists()


@pytest.mark.parametrize("src, at", [
    ("field f : ip in {10.0..10};\nid\n", "1:18"),
    ("field f : ip in {10.0.0.300};\nid\n", "1:18"),
    ("f = 10.0.0.300\n", "1:5"),
    ("f = \u00b2\n", "1:5"),
    ("state s[\u00b2] default 0;\nid\n", "1:9"),
    ("state s[\u0663] default 0;\nid\n", "1:9"),
    ("f = \u0663\n", "1:5"),
    ("field a : int;\na = 99999999999999999999999\n", "2:5"),
    ("field a : int;\na <- 9223372036854775808\n", "2:6"),
    ("state s[18446744073709551616] default 0;\nid\n", "1:9"),
], ids=["empty-octet", "octet-in-domain", "octet-in-test",
        "superscript-value", "superscript-arity", "arabic-indic-arity",
        "arabic-indic-value", "beyond-64-bits-in-test",
        "beyond-64-bits-in-mod", "beyond-64-bits-arity"])
def test_literal_that_is_no_value_exits_1(tmp_path, capsys, src, at):
    """A literal that tokenizes but is no value (an empty octet, an octet
    above 255, a digit other than ASCII 0-9, an integer outside the 64-bit
    signed range that a bundle can hold) is a parse error at the literal:
    exit 1 and one `error:` line, not a traceback, that names the file."""
    pol = tmp_path / "p.snap"
    pol.write_text(src, encoding="utf-8")
    code, out, err = run_cli(["xfdd", "-p", str(pol)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {pol}:{at}: bad ") and err.count("\n") == 1


def test_error_names_the_file_it_comes_from(tmp_path, capsys):
    """With several `-p` files, a parse error names its file before its
    position, and a declaration that conflicts with an earlier file
    names the file that brings it, without a position."""
    a, b = tmp_path / "a.snap", tmp_path / "b.snap"
    a.write_text("field f : small in {0, 1};\nid\n")
    b.write_text("field f : small in {0, 1};\nif f = 0 then id\n")
    code, out, err = run_cli(["xfdd", "-p", str(a), "-p", str(b)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {b}:3:1: expected 'else', found 'EOF'\n"
    b.write_text("field f : small in {0, 2};\nf <- 0\n")
    code, out, err = run_cli(["xfdd", "-p", str(a), "-p", str(b)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {b}: conflicting declarations for field 'f'\n"


def test_largest_integer_literal_compiles_checks_and_simulates(tmp_path,
                                                              capsys):
    """2^63 - 1, the largest literal a bundle holds, compiles to a bundle
    that `check` passes and `simulate` runs: a packet with that value is
    sent out port 2, any other out port 1."""
    big = 2 ** 63 - 1
    pol = tmp_path / "p.snap"
    pol.write_text(f"field a : int;\n"
                   f"if a = {big} then outport <- 2 else outport <- 1\n")
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", str(pol), "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    assert str(big) in (bundle / "diagram.json").read_text()
    code, out, _ = run_cli(["check", "--bundle", str(bundle), "--topo", TOPO,
                            "-p", str(pol)], capsys)
    assert code == 0 and json.loads(out)["ok"] is True
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(
        json.dumps({"port": 1, "packet": {"inport": 1, "a": a}}) + "\n"
        for a in (big, 7)))
    code, out, _ = run_cli(["simulate", "--bundle", str(bundle),
                            "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 0
    assert [(e["port"], e["packet"]["a"]) for e in map(
        json.loads, out.splitlines())] == [(2, big), (1, 7)]


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(["deps", "-p", "/nonexistent.snap"], capsys)
    assert code == 3
    assert "i/o error" in err


def _two_switches(capacity=10.0, u=1, volume=1.0, a="A",
                  again=None, demands=1, relink=None, both=True,
                  demands_key="demands", loop=False, node=(), link=(),
                  demand=(), **extra) -> dict:
    """Two linked switches with a demand; `node`, `link` and `demand` are
    extra keys of the first entry of each kind."""
    nodes = [{"id": a, "external_ports": [1], **dict(node)},
             {"id": "B", "external_ports": [2]}]
    if again is not None:    # switch `a` listed a second time
        nodes.append({"id": a, "external_ports": [again]})
    links = [{"from": a, "to": "B", "capacity": capacity,
              "bidirectional": both, **dict(link)}]
    if relink is not None:   # link a->B listed a second time
        links.append({"from": a, "to": "B", "capacity": relink})
    if loop:                 # a self-loop a->a
        links.append({"from": a, "to": a, "capacity": capacity})
    return {"nodes": nodes, "links": links,
            demands_key: [{"u": u, "v": 2, "volume": volume,
                           **dict(demand)}] * demands,
            **extra}


@pytest.mark.parametrize("data", [
    {"nodes": 3}, {"nodes": [], "links": []},
    {"nodes": [{"id": "A"}], "links": []},
    _two_switches(capacity="nan"), _two_switches(volume="nan"),
    _two_switches(u=1.9), _two_switches(u=True), _two_switches(a=5),
    _two_switches(capacity=True), _two_switches(volume="1e0"),
    _two_switches(again=3, u=3), _two_switches(demands=2),
    _two_switches(relink=5), _two_switches(demands_key="demand"),
    _two_switches(capcity=3), _two_switches(both="false"),
    _two_switches(node={"ports": [3]}), _two_switches(link={"capcity": 3}),
    _two_switches(demand={"vol": 3}), _two_switches(loop=True),
    _two_switches(node={"external_ports": [-1]}, u=-1),
    _two_switches(capacity=10 ** 400)],
    ids=["nodes-not-a-list", "empty", "no-external-port", "nan-capacity",
         "nan-volume", "fractional-port", "bool-port",
         "switch-id-not-a-string", "bool-capacity", "string-volume",
         "switch-listed-twice", "demand-listed-twice",
         "link-listed-twice", "demands-misspelled", "unknown-key",
         "bidirectional-not-a-bool", "unknown-key-in-a-switch",
         "unknown-key-in-a-link", "unknown-key-in-a-demand", "self-loop",
         "negative-port", "capacity-beyond-a-float"])
def test_malformed_topology_exits_3(tmp_path, capsys, data):
    bad = tmp_path / "topo.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "b"
    code, _, err = run_cli(["compile", "-p", policy_path("stateful-fw"),
                            "-t", str(bad), "-o", str(out)], capsys)
    assert code == 3
    assert err.startswith("bad input: topology: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("placement, named", [
    ({"nope": "S1"}, "established"),
    ({"established": "S1"}, "established"),
    ({"established": "C5", "bogus": "C1"}, "bogus")],
    ids=["unplaced", "unknown-switch", "undeclared-variable"])
def test_bad_fixed_placement_exits_3(tmp_path, capsys, placement, named):
    """reroute and compile --placement both refuse a placement that leaves
    a variable without a switch of the topology, or that places a variable
    the program does not declare."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"placement": placement}))
    policies = ["-p", policy_path("stateful-fw"),
                "-p", policy_path("assign-egress")]
    for argv in (["reroute", *policies, "-t", TOPO],
                 ["compile", *policies, "-t", TOPO,
                  "-o", str(tmp_path / "b")]):
        code, out, err = run_cli([*argv, "--placement", str(pfile)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("bad input: ") and err.count("\n") == 1
        assert f"'{named}'" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("content", ["[1, 2]", '"D4"',
                                     '{"placement": [1, 2]}',
                                     '{"placement": {"established": 4}}'],
                         ids=["list", "string", "member-list",
                              "switch-not-a-string"])
def test_placement_not_an_object_exits_3(tmp_path, capsys, content):
    """A --placement file must hold an object mapping variables to switches,
    at the top level or as its "placement" member."""
    pfile = tmp_path / "p.json"
    pfile.write_text(content)
    policies = ["-p", policy_path("stateful-fw"),
                "-p", policy_path("assign-egress")]
    for argv in (["reroute", *policies, "-t", TOPO],
                 ["compile", *policies, "-t", TOPO,
                  "-o", str(tmp_path / "b")]):
        code, out, err = run_cli([*argv, "--placement", str(pfile)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("bad input: placement: ")
        assert err.count("\n") == 1
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("line,says", [
    ('{"port": 1,', "Expecting property name enclosed in double quotes"),
    ('{"port": 1}', "missing key 'packet'"),
    ('{"packet": {}}', "missing key 'port'"),
    ('[1, {}]', "[1, {}] is not an object"),
    ('{"port": 1, "packet": [1]}', "packet [1] is not an object"),
    ('{"port": "1", "packet": {}}', "port '1' is not an int"),
    ('{"port": 1, "packet": {"inport": 1.5}}',
     "packet.inport: cannot interpret 1.5 as a value"),
    ('{"port": 999, "packet": {"inport": 1}}', "no switch exposes port 999"),
    ('{"port": 1, "packet": {}, "pkt": {}}', "unknown key 'pkt'"),
    ('{"port": 1, "packet": {"inport": {"t": "int", "v": "1"}}}',
     "packet.inport: cannot interpret {'t': 'int', 'v': '1'} as a value"),
    ('{"port": 1, "packet": {"srcip": {"t": "int", "v": %d}}}' % 2 ** 64,
     "packet.srcip: cannot interpret {'t': 'int', 'v': %d} as a value"
     % 2 ** 64),
    ('{"port": 1, "packet": {"srcip": []}}',
     "packet.srcip: an empty tuple is not a value"),
    ('{"port": 1, "packet": {"srcip": {"t": "tuple", "v": []}}}',
     "packet.srcip: cannot interpret {'t': 'tuple', 'v': []} as a value"),
    ('{"port": 1, "packet": {"srcip": null}}',
     "packet.srcip: cannot interpret None as a value"),
    ('{"port": 1, "packet": {"srcip": %d}}' % 2 ** 64,
     "packet.srcip: integer out of 64-bit signed range: %d" % 2 ** 64),
    ('{"port": 1, "packet": {"srcport": "80"}}',
     "packet.srcport: '80' is not an address or a prefix"),
    ('{"port": 1, "packet": {"srcip": "10.0.0.300"}}',
     "packet.srcip: '10.0.0.300' is not an address or a prefix"),
    ('{"port": 1, "packet": {"srcip": "10.0.6.1/24"}}',
     "packet.srcip: '10.0.6.1/24' is not an address or a prefix"),
    ('{"port": 1, "packet": {"inport": 3, "outport": 1}}',
     "packet.inport 3 is not the line's port 1"),
    ('{"port": 1, "packet": {"inport": 1, "srcip": "-5"}}',
     "packet.srcip '-5' is not in the declared domain"),
    ('{"port": 1, "packet": {"inport": 1, "dstip": 7}}',
     "packet.dstip 7 is not in the declared domain"),
    ('{"port": 1, "packet": {"inport": 1, "dstip": "10.0.9.10"}}',
     "packet.dstip '10.0.9.10' is not in the declared domain")],
    ids=["not-json", "no-packet", "no-port", "not-an-object",
         "packet-not-an-object", "port-not-an-int", "bad-value",
         "unknown-port", "unknown-key", "tagged-int-a-string",
         "tagged-int-too-large", "empty-tuple", "tagged-empty-tuple",
         "null-value", "int-too-large", "number-a-string",
         "address-past-255", "prefix-with-host-bits", "inport-not-port",
         "atom-outside-domain", "int-outside-domain",
         "address-outside-domain"])
def test_malformed_trace_line_exits_3(tmp_path, capsys, line, says):
    """simulate names the first malformed line of its trace (here the
    second; the first is good), and the packet field of a bad value, and
    exits 3.  A value has one JSON form (`values.value_to_json`): an
    object such as an older tagged value, null, an empty list, an int
    beyond 64 bits and a string of digits and dots that is no address or
    prefix are none.  A packet's `inport` that is not the line's `port`
    is refused too: the diagram would test the one and the rules route
    from the other.  So is a value outside its field's declared domain,
    whatever its kind: stateful-fw declares `srcip` and `dstip` over its
    twelve hosts."""
    bundle = tmp_path / "bundle"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    good = json.dumps({"port": 1, "packet": {"inport": 1, "outport": 1}})
    trace = tmp_path / "trace.jsonl"
    trace.write_text(f"{good}\n{line}\n")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 3 and out == ""
    assert err == f"bad input: trace line 2: {says}\n"


def test_trace_value_outside_its_domain_exits_3(tmp_path, capsys):
    """The compiler prunes a test by its field's declared domain, so a
    packet outside the domain would leave the deployment where the
    interpreter drops it: with `srcport` in {53, 80}, the diagram never
    tests `srcport = 80` and sends srcport 1024 to port 2.  simulate
    refuses such a trace line and exits 3."""
    pol = tmp_path / "ports.snap"
    pol.write_text("field srcport : int in {53, 80};\n"
                   "if srcport = 53 then outport <- 1\n"
                   "else (if srcport = 80 then outport <- 2 else drop)\n")
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", str(pol), "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    pkt = {"inport": 1, "outport": 1, "srcport": 1024}
    prog = lang.parse(pol.read_text())
    assert interp.eval_program(prog, interp.Store.initial(prog),
                               dict(pkt)).packets == {}
    net = simnet.load(str(bundle), topo.load(TOPO))
    assert [port for port, _ in net.inject(1, dict(pkt))] == [2]
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"port": 1, "packet": pkt}) + "\n")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 3 and out == ""
    assert err == ("bad input: trace line 1: packet.srcport 1024 is not in "
                   "the declared domain\n")


@pytest.mark.parametrize("mode", ["serialized", "interleaved"])
def test_trace_packet_missing_a_tested_field_exits_3(tmp_path, capsys,
                                                     mode):
    """A trace packet without a field the diagram tests ends simulate with
    one line naming the first such field the diagram tests, in the
    reference interpreter's words, and exit 3."""
    bundle = tmp_path / "bundle"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-p", policy_path("assign-egress"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"port": 1, "packet": {"inport": 1}}\n')
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace),
                              "--mode", mode], capsys)
    assert code == 3 and out == ""
    assert err == "bad input: simulation: unknown field 'dstip'\n"


@pytest.mark.parametrize("mode", ["serialized", "interleaved"])
def test_counter_overflow_ends_simulate_with_exit_3(tmp_path, capsys, mode):
    """A packet that increments a counter past the 64-bit signed range
    ends simulate with one line and exit 3, not a traceback."""
    pol = tmp_path / "count.snap"
    pol.write_text(f"state s[1] default {2 ** 63 - 1};\n"
                   "s[0]++; outport <- 2\n")
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", str(pol), "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"port": 1, "packet": {"inport": 1, "outport": 1}}\n')
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace),
                              "--mode", mode], capsys)
    assert code == 3 and out == ""
    assert err == ("bad input: simulation: integer out of 64-bit signed "
                   f"range: {2 ** 63}\n")


def _run_child(argv, tmp_path) -> tuple:
    """(exit code, stdout, peak RSS in MB) of `snapnet argv` in a child
    process of its own."""
    with open(tmp_path / "child.out", "w+") as out:
        child = subprocess.Popen([sys.executable, "-m", "snapnet.cli",
                                  *argv], stdout=out,
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return child.returncode, out.read(), usage.ru_maxrss / 1024


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_checking_a_fifty_switch_solution_stays_under_100_mb(tmp_path):
    """check -p on generated(50, 7) with dns-tunnel-detect;assign-egress
    (budget 64) walks its 259,717 rows without keeping them: the router's
    walks, five of which pass their source or sink again, break no row,
    and it peaks under 100 MB (266 MB when the model kept its rows in a
    list)."""
    tfile = tmp_path / "g50.json"
    tfile.write_text(json.dumps(topo.to_json(topo.generated(50, 7))))
    policy = ["-p", policy_path("dns-tunnel-detect"),
              "-p", policy_path("assign-egress")]
    bundle = str(tmp_path / "b")
    code, _, _ = _run_child(["compile", *policy, "-t", str(tfile),
                             "--budget", "64", "-o", bundle], tmp_path)
    assert code == 0
    code, out, peak_mb = _run_child(["check", "--bundle", bundle,
                                     "--topo", str(tfile), *policy],
                                    tmp_path)
    assert (code, json.loads(out)) == (0, {"ok": True, "problems": []})
    assert peak_mb < 100


def test_check_damaged_bundle_exits_2(tmp_path, capsys):
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    pl = json.loads((bundle / "placement.json").read_text())
    pl["placement"] = {k: "nowhere" for k in pl["placement"]}
    (bundle / "placement.json").write_text(json.dumps(pl))
    code, out, _ = run_cli(["check", "--bundle", str(bundle),
                            "--topo", TOPO], capsys)
    assert code == 2
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("extra, says", [
    (["-t", TOPO, "--mode", "TE"], "unrecognized arguments: --mode TE"),
    ([], "required: -t/--topology")], ids=["unknown-flag", "missing-option"])
def test_usage_error_exits_3(tmp_path, capsys, extra, says):
    """Usage errors exit 3 with one line; exit 2 means infeasible or a
    failed check."""
    out = tmp_path / "b"
    code, stdout, err = run_cli(["compile", "-p", policy_path("stateful-fw"),
                                 "-o", str(out), *extra], capsys)
    assert code == 3 and stdout == ""
    assert err.startswith("bad input: snapnet") and says in err
    assert err.count("\n") == 1
    assert not out.exists()


def _weighted_paths(d):
    """A routing.json in the format that listed weighted paths per flow."""
    return dict(d, flows=[{"u": r["u"], "v": r["v"],
                           "paths": [{"weight": 1.0, "nodes": r["nodes"]}]}
                          for r in d["flows"]])


def _put(*path, value):
    """Bundle damage: set the item at `path` of a JSON part to `value`
    (diagram.json lists node i at index i)."""
    def damage(d):
        at = d
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = value
        return d
    return damage


def _inline_tables(d):
    """A diagram.json in the format that listed each node with its `id`
    and its test and atoms written out, with no `tests` or `atoms`
    table."""
    def inline(i, n):
        if n["kind"] == "branch":
            return dict(n, id=i, test=d["tests"][n["test"]])
        return dict(n, id=i, elems=[[d["atoms"][k] for k in elem]
                                    for elem in n["elems"]])
    return {"root": d["root"],
            "nodes": [inline(i, n) for i, n in enumerate(d["nodes"])]}


def _set_walk(i, nodes):
    """Bundle damage: set the walk of routing.json's i-th flow."""
    def damage(d):
        d["flows"][i]["nodes"] = nodes
        return d
    return damage


@pytest.mark.parametrize("part, damage, says", [
    ("placement.json", lambda d: {k: v for k, v in d.items() if k != "mode"},
     "missing key 'mode'"),
    ("placement.json", lambda d: dict(d, placement=dict(
        d["placement"], established=["C5"])),
     "placement.established ['C5'] is not a string"),
    ("placement.json", lambda d: dict(d, objective="3.0"),
     "objective '3.0' is not a number"),
    ("placement.json", lambda d: dict(d, objective=10 ** 400),
     "objective 1" + "0" * 56 + "... is not a number"),
    ("placement.json", lambda d: dict(d, mode=5),
     'mode 5 is not "ST" or "TE"'),
    ("placement.json", lambda d: dict(d, exact="no"),
     "exact 'no' is not true or false"),
    ("placement.json", lambda d: dict(d, dep=[["established"]]),
     "dep[0] ['established'] is not a list of 2"),
    ("placement.json", lambda d: dict(d, dep="established"),
     "dep 'established' is not a list"),
    ("placement.json", lambda d: dict(d, dep=[["established", 1]]),
     "dep[0][1] 1 is not a string"),
    ("placement.json", lambda d: {k: v for k, v in d.items() if k != "dep"},
     "missing key 'dep'"),
    ("placement.json", lambda d: [d],
     "[{'dep': [], 'exact': True, 'mode': 'ST', 'objective': 12... is not an "
     "object"),
    ("routing.json", lambda d: {}, "missing key 'flows'"),
    ("routing.json", _weighted_paths,
     "missing key 'nodes' in an object at flows[0]"),
    ("routing.json", _set_walk(0, "I1C1"),
     "flows[0].nodes 'I1C1' is not a list"),
    ("routing.json", _set_walk(0, []),
     "flow (1,2): walk [] is not a non-empty list of switch names"),
    ("routing.json", lambda d: dict(d, flows=d["flows"][:1] + d["flows"]),
     "flow (1,2) is listed twice"),
    ("diagram.json", lambda d: {k: v for k, v in d.items() if k != "nodes"},
     "missing key 'nodes'"),
    ("diagram.json", lambda d: dict(d, nodes=3), "nodes 3 is not a list"),
    ("diagram.json", _inline_tables, "missing key 'tests'"),
    ("diagram.json", _put("nodes", 0, "test", value=3),
     "nodes[0].test 3 is not an index of the 3 tests"),
    ("diagram.json", _put("nodes", 2, "elems", 0, 0, value=2),
     "nodes[2].elems[0][0] 2 is not an index of the 2 atoms"),
    ("diagram.json", _put("nodes", 0, "test", value=-1),
     "nodes[0].test -1 is not an index of the 3 tests"),
    ("diagram.json", _put("nodes", 0, "hi", value=[1]),
     "nodes[0].hi [1] is not an int"),
    ("placement.json", _put("version", value=2), "unknown key 'version'"),
    ("routing.json", _put("version", value=2), "unknown key 'version'"),
    ("diagram.json", _put("version", value=2), "unknown key 'version'"),
    ("routing.json", _put("flows", 0, "weight", value=1.0),
     "unknown key 'weight' in an object at flows[0]"),
    ("diagram.json", _put("nodes", 0, "weight", value=1),
     "unknown key 'weight' in an object at nodes[0]"),
    ("diagram.json", _put("tests", 0, "op", value="="),
     "unknown key 'op' in an object at tests[0]"),
    ("routing.json", _put("flows", 0, "u", value=True),
     "flows[0].u True is not an int"),
    ("routing.json", _put("flows", 0, "v", value=2.0),
     "flows[0].v 2.0 is not an int"),
    ("diagram.json", _put("nodes", 2, "hi", value=1),
     "unknown key 'hi' in an object at nodes[2]"),
    ("diagram.json", _put("nodes", 0, "kind", value="bogus"),
     "nodes[0].kind 'bogus' is not " '"branch" or "leaf"'),
    ("diagram.json", _put("tests", 0, "field", value=5),
     "tests[0].field 5 is not a string"),
    ("diagram.json", _put("tests", 0, "value", value={"t": "int", "v": "7"}),
     "tests[0]: cannot interpret {'t': 'int', 'v': '7'} as a value"),
    ("diagram.json", _put("tests", 0, "value", value=7.0),
     "tests[0]: cannot interpret 7.0 as a value"),
    ("diagram.json", _put("tests", 0, "value", value=None),
     "tests[0]: cannot interpret None as a value"),
    ("diagram.json", _put("tests", 0, "value", value=2 ** 64),
     "tests[0]: integer out of 64-bit signed range: 18446744073709551616"),
    ("diagram.json", _put("tests", 0, "value", value="80"),
     "tests[0]: '80' is not an address or a prefix"),
    ("diagram.json", _put("tests", 0, "value", value="10.0.0.300"),
     "tests[0]: '10.0.0.300' is not an address or a prefix"),
    ("diagram.json", _put("tests", 0, "value", value=[]),
     "tests[0]: an empty tuple is not a value"),
    ("diagram.json", _put("atoms", 0, "rhs", value={"e": "lit",
                                                    "value": []}),
     "atoms[0]: an empty tuple is not a value"),
    ("diagram.json", _put("tests", 0, value={"t": "ff", "f1": "srcip",
                                             "f2": "dstip"}),
     "tests[0]: field-field test of 'srcip' and 'dstip' is not canonical: "
     "f1 must sort before f2"),
    ("diagram.json", _put("tests", 0, value={"t": "ff", "f1": "srcip",
                                             "f2": "srcip"}),
     "tests[0]: field-field test of 'srcip' and 'srcip' is not canonical: "
     "f1 must sort before f2"),
    ("diagram.json", _put("nodes", 2, "elems", value=[]),
     "nodes[2].elems is empty: a leaf has at least one action sequence"),
    ("diagram.json", None, "not found; compile the bundle again"),
    ("program.snap", None, "not found; compile the bundle again"),
    ("program.snap", lambda s: s.replace("default False", "default"),
     "1:29: expected a value literal, found ';'")],
    ids=["placement-no-mode", "placement-value-a-list",
         "placement-objective-a-string", "placement-objective-too-large",
         "placement-mode-a-number",
         "placement-exact-a-string", "dep-pair-of-one",
         "dep-a-string", "dep-pair-with-a-number", "dep-missing",
         "placement-a-list", "routing-no-flows",
         "routing-weighted-paths", "routing-walk-a-string",
         "routing-walk-empty", "routing-flow-twice",
         "diagram-no-nodes", "diagram-nodes-a-number", "diagram-old-format",
         "diagram-test-past-the-table", "diagram-atom-past-the-table",
         "diagram-index-minus-one", "diagram-child-a-list",
         "placement-unknown-key", "routing-unknown-key", "diagram-unknown-key",
         "routing-row-unknown-key", "diagram-node-unknown-key",
         "diagram-test-unknown-key", "routing-u-a-bool",
         "routing-v-a-float", "diagram-leaf-with-hi", "diagram-kind-bogus",
         "diagram-field-a-number", "diagram-int-a-string",
         "diagram-value-a-float", "diagram-value-null",
         "diagram-int-too-large", "diagram-value-number-a-string",
         "diagram-value-address-past-255", "diagram-test-empty-tuple",
         "diagram-atom-empty-tuple", "diagram-ff-fields-out-of-order",
         "diagram-ff-same-field-twice", "diagram-leaf-without-sequences",
         "diagram-missing",
         "program-missing", "program-does-not-parse"])
def test_malformed_bundle_exits_3(tmp_path, capsys, part, damage, says):
    """simulate and check name the damaged bundle file, and what is wrong
    with it in one whole line, and exit 3.  A bundle without
    `program.snap` or `diagram.json` (every bundle written before the
    declarations or the diagram moved there) is one, so is a
    placement.json without `dep` (every bundle written while switch files
    held the groups), a diagram.json without the `tests` table (every
    bundle written while each node held its test and atoms), and a
    `program.snap` that does not parse: bad input, not a compile error
    (exit 1).  So is a JSON part not of its table's shape: an unknown key
    at the top, in a routing row, a node or a test, a `u` that is a bool
    or a `v` that is a float, a leaf with `hi`, a `kind` that is neither,
    a test `field` that is a number.  So is a value in no value's JSON
    form: an object, such as an older bundle's tagged value, a float,
    null, an int beyond 64 bits, a string of digits and dots that is no
    address, and an empty tuple in a test or an atom.  So is a node's
    test or atom index past its table or negative, a field-field test whose fields are
    not in order (the compiler writes f1 before f2, so the reader does
    not guess), and a leaf with no action sequence, which the compiler
    never writes and under which a packet would vanish."""
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    path = bundle / part
    if damage is None:
        path.unlink()
    elif part != "program.snap":
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    else:
        path.write_text(damage(path.read_text()))
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"port": 1, "packet": {"inport": 1}}) + "\n")
    for argv in (["simulate", "--trace", str(trace)], ["check"]):
        code, out, err = run_cli([*argv, "--bundle", str(bundle),
                                  "--topo", TOPO], capsys)
        assert code == 3 and out == ""
        assert err == f"bad input: {path}: {says}\n"


# every test, atom, expression and value tag but a tuple value (no source
# program writes one), and a `dep` of three pairs
EVERY_TAG = """
state seen[1] default 0;
state count[1] default 0;
state flag[2] default False;
field srcport : int in {20, 80};
field dstport : int in {20, 80};
field srcip : ip in {10.0.1.10, 10.0.3.10};
field dstip : ip in {10.0.1.10, 10.0.3.10};

seen[0] <- srcport;
(if seen[0] = dstport then count[srcport]++ else count[dstport]--);
(if srcip = 10.0.1.10 then flag[srcip][dstip] <- True
 else (if flag[dstip][srcip] then id else drop));
(if dstip = 10.0.1.0/24 then outport <- 1 else outport <- 3)
"""


def _is_object(table) -> bool:
    """Whether `table` is an object's with named keys, not a map's."""
    return isinstance(table, Tagged) or (isinstance(table, dict)
                                         and str not in table)


def _table_slots(doc, table, path=(), entry=None, required=False):
    """(path, table, entry, required) for each value of `doc` read
    through `table`, the top first: `entry` names the table entry the
    value fills, the same for every value that fills it, and `required`
    says the value is under a key that its object may not leave out."""
    yield path, table, entry, required
    if isinstance(table, Tagged):
        case = table.cases[doc[table.key]][1]
        entries = [(table.key, set(table.cases), (id(table), table.key))]
        entries += [(k, s, (id(case), k)) for k, s in case.items()]
    elif isinstance(table, tuple):
        entries = [(i, s, (id(table), i)) for i, s in enumerate(table)]
    elif isinstance(table, list):
        entries = [(i, table[0], (id(table), 0)) for i in range(len(doc))]
    elif isinstance(table, dict) and str in table:
        entries = [(k, table[str], (id(table), str)) for k in doc]
    elif isinstance(table, dict):
        entries = [(k, s, (id(table), k.rstrip("?")))
                   for k, s in table.items()]
    else:
        entries = []
    for k, s, filled in entries:
        key = k.rstrip("?") if isinstance(k, str) else k
        if isinstance(doc, list) or key in doc:
            yield from _table_slots(doc[key], s, path + (key,), filled,
                                    _is_object(table) and k[-1] != "?")


def _table_entries(table, seen=None) -> set:
    """Every entry of `table`, as `_table_slots` names them."""
    seen = set() if seen is None else seen
    if id(table) in seen or isinstance(table, (type, set)):
        return set()
    seen.add(id(table))
    if isinstance(table, Tagged):
        out = {(id(table), table.key)}
        for _, case in table.cases.values():
            out |= {(id(case), k.rstrip("?")) for k in case}
            for s in case.values():
                out |= _table_entries(s, seen)
        return out
    if isinstance(table, (list, tuple)):
        items = dict(enumerate(table))
    else:
        items = {k.rstrip("?") if isinstance(k, str) else k: s
                 for k, s in table.items()}
    out = {(id(table), k) for k in items}
    for s in items.values():
        out |= _table_entries(s, seen)
    return out


def _wrong_type(table):
    """A JSON value of another type than `table` asks for; for a value's
    slot, one that is no value's form."""
    if table is object:
        return None
    if isinstance(table, (dict, Tagged)) or table is dict:
        return []
    if isinstance(table, (list, tuple)):
        return {}
    if table is bool:
        return 1
    return "1" if table in (int, float) else 5


def _edited(doc, path, change):
    """A copy of `doc` with change(container, key) made at `path`."""
    box = [copy.deepcopy(doc)]
    at, keys = box, (0, *path)
    for key in keys[:-1]:
        at = at[key]
    change(at, keys[-1])
    return box[0]


def _mutants(doc, table):
    """(entry, what, mutated copy of `doc`) for each table entry's first
    value in `doc`: the value of another JSON type, the key deleted if its
    object may not leave it out, and an unknown key added to an object."""
    done: set = set()
    for path, t, entry, required in _table_slots(doc, table):
        if entry in done:
            continue
        done.add(entry)
        wrong = _wrong_type(t)
        changes = {"wrong type": lambda at, k: at.__setitem__(k, wrong)}
        if required:
            changes["deleted"] = lambda at, k: at.pop(k)
        if _is_object(t):
            changes["unknown key"] = lambda at, k: at[k].update(zz=1)
        for what, change in changes.items():
            yield entry, f"{what} at {path}", _edited(doc, path, change)


def test_every_table_entry_mutated_exits_3(tmp_path, capsys):
    """For each entry of the topology's table and of each bundle file's
    table, on a compile that holds every tag, and on example12: the
    entry's first value swapped for one of another JSON type (for a
    value's slot, null), the key deleted if it is required, and an
    unknown key added to each object, each make `check` exit 3 with one
    `bad input:` line naming the file.  None exits 0 or ends in a
    traceback.  Every entry is reached, those of diagram.json's `tests`
    and `atoms` tables included."""
    policy = tmp_path / "every-tag.snap"
    policy.write_text(EVERY_TAG)
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", str(policy), "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    tfile = tmp_path / "topo.json"
    parts = [(tfile, topo.TOPOLOGY, topo.to_json(topo.example12()),
              "topology: "),
             *((bundle / name, table, json.loads((bundle / name).read_text()),
                f"{bundle / name}: ")
               for name, table in (("placement.json", rulegen.PLACEMENT),
                                   ("diagram.json", rulegen.DIAGRAM),
                                   ("routing.json", opt.ROUTING)))]
    tfile.write_text(json.dumps(parts[0][2]))
    wrong = []
    for path, table, doc, says in parts:
        filled = set()
        for entry, what, mutant in _mutants(doc, table):
            filled.add(entry)
            path.write_text(json.dumps(mutant))
            code, out, err = run_cli(["check", "--bundle", str(bundle),
                                      "--topo", str(tfile)], capsys)
            if not (code == 3 and out == "" and err.count("\n") == 1
                    and err.startswith(f"bad input: {says}")):
                wrong.append((str(path), what, code, err))
        path.write_text(json.dumps(doc))
        assert _table_entries(table) <= filled, path
    assert wrong == []


def test_tampered_declaration_fails_check_p(tmp_path, capsys):
    """The bundle's `program.snap` holds the program's declarations once.
    `check -p` reports each one that differs from the program's: here
    `established`, set to arity 7 and default True, and a field domain
    with a port dropped.  Without -p there is no program to compare, but
    the bundle's own diagram indexes `established` by two fields at seven
    nodes: plain `check` reports each (exit 2), and `simulate` refuses
    the bundle (exit 3)."""
    bundle = tmp_path / "b"
    policies = ["-p", policy_path("stateful-fw"),
                "-p", policy_path("assign-egress")]
    code, _, _ = run_cli(["compile", *policies, "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    check = ["check", "--bundle", str(bundle), "--topo", TOPO]
    code, out, _ = run_cli([*check, *policies], capsys)
    assert (code, json.loads(out)) == (0, {"ok": True, "problems": []})
    path = bundle / "program.snap"
    text = path.read_text()
    assert "state established[2] default False;\n" in text
    assert "{20, 21, 25, 53, 80, 1024, 1025};\nfield dstport" in text
    path.write_text(text.replace("established[2] default False",
                                 "established[7] default True")
                        .replace("1024, 1025};\nfield dstport",
                                 "1024};\nfield dstport"))
    arity = [f"node {nid} indexes 'established' with arity 2, not the "
             "declared 7" for nid in (2, 6, 10, 11, 16, 20, 23)]
    code, out, _ = run_cli([*check, *policies], capsys)
    assert code == 2
    assert json.loads(out)["problems"] == arity + [
        "state 'established': the bundle declares state established[7] "
        "default True, the program state established[2] default False",
        "field 'srcport': the bundle declares field srcport : int in "
        "{20, 21, 25, 53, 80, 1024}, the program field srcport : int in "
        "{20, 21, 25, 53, 80, 1024, 1025}"]
    code, out, _ = run_cli(check, capsys)
    assert (code, json.loads(out)["problems"]) == (2, arity)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 3 and out == ""
    assert err == "bad input: inconsistent bundle: " + "; ".join(arity) + "\n"


def test_tampered_diagram_fails_check_p(tmp_path, capsys):
    """The bundle's `diagram.json` holds the pruned, numbered diagram once.
    A leaf changed to send the packet out of port 6 (leaf 3 sends it out
    of port 1), through an atom added to the table so that no other leaf
    changes, is a sound bundle on its own, so plain `check` passes it;
    `check -p` builds the program's diagram, names the node that differs
    and exits 2."""
    bundle = tmp_path / "b"
    policies = ["-p", policy_path("stateful-fw"),
                "-p", policy_path("assign-egress")]
    code, _, _ = run_cli(["compile", *policies, "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    path = bundle / "diagram.json"
    d = json.loads(path.read_text())
    leaf = d["nodes"][3]
    [[k]] = leaf["elems"]
    assert d["atoms"][k] == {"a": "mod", "field": "outport", "value": 1}
    d["atoms"].append(dict(d["atoms"][k], value=6))
    leaf["elems"] = [[len(d["atoms"]) - 1]]
    path.write_text(json.dumps(d))
    check = ["check", "--bundle", str(bundle), "--topo", TOPO]
    code, out, _ = run_cli(check, capsys)
    assert (code, json.loads(out)) == (0, {"ok": True, "problems": []})
    code, out, _ = run_cli([*check, *policies], capsys)
    assert (code, json.loads(out)["problems"]) == (
        2, ["diagram: node 3 differs from the program's"])


@pytest.mark.parametrize("damage, says", [
    (lambda dep: dep[1:],
     "dep: ('orphan', 'susp-client') is in the program only"),
    (lambda dep: dep + [["blacklist", "orphan"]],
     "dep: ('blacklist', 'orphan') is in the bundle only")],
    ids=["dep-pair-dropped", "dep-pair-added"])
def test_dep_that_differs_fails_check_p(tmp_path, capsys, damage, says):
    """placement.json holds the program's dependency relation, from
    which `load_bundle` derives where each variable runs on a walk and so
    the waiting-packet groups.  A bundle whose `dep` lost or gained a
    pair is sound on its own, so plain `check` passes it; `check -p`
    names the pair and exits 2."""
    bundle = tmp_path / "b"
    policies = ["-p", policy_path("dns-tunnel-detect"),
                "-p", policy_path("assign-egress")]
    code, _, _ = run_cli(["compile", *policies, "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    path = bundle / "placement.json"
    d = json.loads(path.read_text())
    assert d["dep"] == [["orphan", "susp-client"],
                        ["susp-client", "blacklist"]]
    path.write_text(json.dumps(dict(d, dep=damage(d["dep"]))))
    check = ["check", "--bundle", str(bundle), "--topo", TOPO]
    code, out, _ = run_cli(check, capsys)
    assert (code, json.loads(out)) == (0, {"ok": True, "problems": []})
    code, out, _ = run_cli([*check, *policies], capsys)
    assert (code, json.loads(out)["problems"]) == (2, [says])


def test_groups_are_derived_not_written(tmp_path, capsys):
    """A compile writes no switch/ directory, so no waiting-packet group
    can be deleted from a bundle: the loaded C1 groups of
    stateful-fw;assign-egress on example12 hold the (1, established)
    group, which sends every flow from port 1 on to `established`'s
    owner C5."""
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-p", policy_path("assign-egress"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    assert not (bundle / "switch").exists()
    t = topo.load(TOPO)
    loaded = rulegen.load_bundle(str(bundle), t)
    assert loaded.placement == {"established": "C5"}
    group = loaded.groups["C1"][(1, "established")]
    assert {(v, nh) for _, v, nh in group} == {
        (v, "C5") for u, v in t.demands if u == 1}


@pytest.mark.parametrize("root, check_code, says", [
    ("x", 3, "root 'x' is not an int"),
    (True, 3, "root True is not an int"),
    (1.0, 3, "root 1.0 is not an int"),
    (10 ** 6, 2, "root 1000000 is not a node of the bundle")],
    ids=["string", "bool", "float", "no-such-node"])
def test_bad_root_fails_check_and_simulate_refuses_it(tmp_path, capsys,
                                                      root, check_code,
                                                      says):
    """A diagram.json root that is not a node id is bad input to `check
    -p` and `simulate` (exit 3); one that is an id but no node of the
    bundle fails `check -p` (exit 2) and `simulate` refuses the bundle
    (exit 3); `-p` also names the program's root.  Neither ends in a
    traceback."""
    bundle = tmp_path / "b"
    policies = ["-p", policy_path("stateful-fw"),
                "-p", policy_path("assign-egress")]
    code, _, _ = run_cli(["compile", *policies, "-t", TOPO,
                          "-o", str(bundle)], capsys)
    assert code == 0
    path = bundle / "diagram.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                    root=root)))
    code, out, err = run_cli(["check", *policies, "--bundle", str(bundle),
                              "--topo", TOPO], capsys)
    assert code == check_code
    if code == 2:
        assert json.loads(out)["problems"] == [
            says, f"diagram: root {root}, not 0"]
    else:
        assert out == "" and err == f"bad input: {path}: {says}\n"
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"port": 1, "packet": {"inport": 1}}) + "\n")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 3 and out == ""
    assert err == (f"bad input: inconsistent bundle: {says}\n"
                   if check_code == 2 else f"bad input: {path}: {says}\n")


@pytest.mark.parametrize("part, damage, says", [
    ("routing.json", lambda d: dict(d, flows=d["flows"][1:]),
     "flow (1,2) has no walk"),
    ("routing.json", lambda d: dict(d, flows=d["flows"] + [
        dict(d["flows"][0], u=99)]),
     "walk of flow (99,2), which is not a demand of the topology"),
    ("routing.json", _set_walk(0, ["C1", "C5", "C6", "C2", "I2"]),
     "walk of flow (1,2) runs C1->I2, not I1->I2"),
    ("routing.json", _set_walk(0, ["I1", "C1", "C5", "C6", "C2"]),
     "walk of flow (1,2) runs I1->C2, not I1->I2"),
    ("routing.json", _set_walk(0, ["I1", "C1", "C6", "C2", "I2"]),
     "walk of flow (1,2) crosses C1->C6, not a link"),
    ("routing.json", _set_walk(0, ["I1", "C1", "I1", "C1", "C5", "C6",
                                   "C2", "I2"]),
     "walk of flow (1,2) reuses a link"),
    ("routing.json", _set_walk(0, ["I1", "C1", "C5", "C3", "C4", "C2",
                                   "I2"]),
     "objective 12.399999999999972, but the walks cost 12.500000000000004"),
    ("placement.json", lambda d: dict(d, objective=12.5),
     "objective 12.5, but the walks cost 12.400000000000004"),
    ("placement.json", lambda d: dict(d, placement=dict(
        d["placement"], bogus="C1")),
     "placement of 'bogus', which the program does not declare"),
    ("placement.json", lambda d: dict(d, placement={}),
     "state variable 'established' is unplaced"),
    ("placement.json", lambda d: dict(d, dep=d["dep"] + [
        ["nosuch", "established"]]),
     "dep pair ('nosuch', 'established') names 'nosuch', which the program "
     "does not declare"),
    ("diagram.json", _put("nodes", 0, "lo", value=999),
     "node 0 references unknown node 999"),
    ("diagram.json", _put("nodes", 0, "lo", value=0),
     "node 0 leads back to node 0, a cycle")],
    ids=["flow-without-walk", "walk-of-no-demand",
         "walk-starts-elsewhere", "walk-ends-elsewhere",
         "walk-crosses-no-link", "walk-reuses-a-link",
         "walk-of-another-cost", "objective-edited", "undeclared-placed",
         "declared-unplaced", "unplaced-var", "dangling-child", "cycle"])
def test_bad_rule_fails_check_and_simulate_refuses_it(tmp_path, capsys,
                                                      part, damage, says):
    """A routing.json that does not give each of the topology's demands,
    and no other flow, one walk from u's switch to v's over links of the
    topology, none of them twice, fails `check` (exit 2), and `simulate`
    refuses the bundle at load (exit 3), before any packet moves.  So
    does an objective that is not the walks' cost: flow (1,2)'s walk
    I1-C1-C5-C6-C2-I2 changed to the longer valid I1-C1-C5-C3-C4-C2-I2,
    or placement.json's objective edited.  So does a placement that does
    not name exactly the variables of the bundle's `program.snap`: one
    that places a variable the program does not declare, or leaves
    `established` unplaced, and a `dep` that orders a variable with no
    placement, one the program does not declare, before `established`:
    the groups derived at load would wait on it.  So does a node of
    `diagram.json` whose child is no node of the diagram, and one whose
    child leads back to it: a packet's walk of the diagram would never
    end."""
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-p", policy_path("assign-egress"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    path = bundle / part
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    code, out, _ = run_cli(["check", "--bundle", str(bundle),
                            "--topo", TOPO], capsys)
    assert code == 2
    assert json.loads(out)["problems"] == [says]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 3 and out == ""
    assert err == f"bad input: inconsistent bundle: {says}\n"


# simulate, with C1's group for packets from port 1 that wait on
# `established` sent back to I1 once the bundle has passed its checks
LOOPING_SIMULATE = """
import sys
from snapnet import cli, simnet
load = simnet.load
def load_then_loop(*args, **kwargs):
    net = load(*args, **kwargs)
    group = net.bundle.groups["C1"]
    group[1, "established"] = tuple((w, v, "I1")
                                    for w, v, _ in group[1, "established"])
    return net
simnet.load = load_then_loop
sys.exit(cli.main(sys.argv[1:]))
"""


def test_forwarding_loop_ends_simulate_with_exit_3(tmp_path, capsys):
    """C1's group for packets from port 1 that wait on `established`
    sends them back to I1, whose group sends them to C1 again.  A bundle
    cannot hold such a group, since `load_bundle` derives the groups, so
    it is changed after `simnet.load` has loaded the bundle; simulate
    stops the copy once it crosses more links than any walk may
    (12 switches x (1 state variable + 1)) and exits 3.  It runs in a
    child process with a timeout, so a loop fails this test instead of
    hanging the suite."""
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-p", policy_path("assign-egress"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"port": 1, "packet": {
        "srcip": "10.0.1.10", "dstip": "10.0.3.10", "inport": 1,
        "outport": 1}}) + "\n")
    r = subprocess.run([sys.executable, "-c", LOOPING_SIMULATE, "simulate",
                        "--bundle", str(bundle), "--topo", TOPO,
                        "--trace", str(trace)],
                       capture_output=True, text=True, timeout=30)
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == ("bad input: simulation: a packet from port 1 "
                        "crossed 24 links and loops on I1->C1\n")


def test_packet_toward_a_switch_it_cannot_reach_exits_3(tmp_path, capsys):
    """The only link runs from A to B, and the only demand is from port 1
    on A to port 2 on B.  A packet from port 2 that the program sends out
    port 1 has no rule and no walk back to A, so simulate exits 3 and
    says so."""
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(_two_switches(both=False)))
    pol = tmp_path / "p.snap"
    pol.write_text("if inport = 2 then outport <- 1 else outport <- 2\n")
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", str(pol), "-t", str(tfile),
                          "-o", str(bundle)], capsys)
    assert code == 0
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"port": 2, "packet": {"inport": 2}}) + "\n")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", str(tfile), "--trace", str(trace)],
                             capsys)
    assert (code, out) == (3, "")
    assert err == "bad input: simulation: switch B cannot reach A\n"


def test_two_ports_on_one_switch(tmp_path, capsys):
    """On the line S1-S3-S2, S1 exposes ports 1 and 2, and a packet from
    port 1 writes `seen`.  The search places `seen` on S1, where the
    flows (1, 2) and (2, 1) never leave their switch, and the four walks
    of two links each cost 0.8; `simulate` agrees with the interpreter.
    With `seen` fixed on S2, the flow (1, 2) would have to leave S1 and
    come back, which no walk does, so `reroute` exits 2."""
    tfile, pol = tmp_path / "line.json", tmp_path / "seen.snap"
    tfile.write_text(json.dumps(topo.to_json(two_port_line())))
    pol.write_text(SEEN_FROM_PORT_1)
    bundle = tmp_path / "b"
    code, out, _ = run_cli(["compile", "-p", str(pol), "-t", str(tfile),
                            "-o", str(bundle)], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["placement"] == {"seen": "S1"}
    assert info["objective"] == pytest.approx(0.8)
    prog = lang.parse(SEEN_FROM_PORT_1)
    store = interp.Store.initial(prog)
    pkts = [(port, {"inport": port, "outport": port, "srcip": src,
                    "dst": dst})
            for port in (1, 2, 3) for src in ("10.0.0.1", "10.0.0.2")
            for dst in (1, 2, 3)]
    want = []
    for port, pkt in pkts:
        r = interp.eval_program(prog, store, {
            f: values.value_from_json(v) for f, v in pkt.items()})
        store = r.store
        want += [{"port": q["outport"], "packet": {
            f: values.value_to_json(v) for f, v in q.items()}}
            for q in r.packets.values()]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps({"port": port, "packet": pkt}) + "\n"
                             for port, pkt in pkts))
    code, out, _ = run_cli(["simulate", "--bundle", str(bundle), "--topo",
                            str(tfile), "--trace", str(trace)], capsys)
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == want
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"seen": "S2"}))
    code, out, err = run_cli(["reroute", "-p", str(pol), "-t", str(tfile),
                              "--placement", str(pfile)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_config_for_unknown_switch_fails_check(tmp_path, capsys):
    """A bundle that names a switch the topology has none of fails
    `check`.  The rules and groups are derived for the topology's own
    switches, so placement.json is where a bundle can name such a
    switch: here it places `established` on ZZ."""
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    path = bundle / "placement.json"
    d = json.loads(path.read_text())
    path.write_text(json.dumps(dict(d, placement={"established": "ZZ"})))
    code, out, _ = run_cli(["check", "--bundle", str(bundle),
                            "--topo", TOPO], capsys)
    assert code == 2
    assert json.loads(out)["problems"] == [
        "placement of 'established' on unknown switch 'ZZ'"]


@pytest.mark.parametrize("command", ["compile", "place"])
@pytest.mark.parametrize("budget", ["0", "-8"])
def test_budget_below_one_exits_3(tmp_path, capsys, command, budget):
    """A search budget below 1 is refused with one line, not a
    traceback."""
    out = tmp_path / "b"
    argv = [command, "-p", policy_path("dns-tunnel-detect"),
            "-p", policy_path("assign-egress"), "-t", TOPO,
            "--budget", budget]
    if command == "compile":
        argv += ["-o", str(out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 3 and stdout == ""
    assert err == f"bad input: search budget {budget} is below 1\n"
    assert not out.exists()


def test_simulate_inconsistent_bundle_exits_3(tmp_path, capsys):
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "-o", str(bundle)], capsys)
    assert code == 0
    pl = json.loads((bundle / "placement.json").read_text())
    pl["placement"] = {k: "nowhere" for k in pl["placement"]}
    (bundle / "placement.json").write_text(json.dumps(pl))
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"port": 1, "packet": {"inport": 1}}) + "\n")
    code, out, err = run_cli(["simulate", "--bundle", str(bundle),
                              "--topo", TOPO, "--trace", str(trace)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("bad input: inconsistent bundle: ")
    assert err.count("\n") == 1


def test_export_lp(tmp_path, capsys):
    """`export-lp` writes the model to -o, or else to stdout."""
    lp = tmp_path / "m.lp"
    code, _, _ = run_cli(["export-lp", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "-o", str(lp)], capsys)
    assert code == 0
    text = lp.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")
    code, out, _ = run_cli(["export-lp", "-p", policy_path("stateful-fw"),
                            "-t", TOPO], capsys)
    assert code == 0 and out == text


def test_export_lp_with_placement_fixes_the_placement(tmp_path, capsys):
    """A --placement file fixes the placement, as it does for compile: the
    rows are those of the ST model, and each placement indicator is bound
    to 1 on the file's switch and to 0 on every other."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"placement": {"established": "C5"}}))
    lp = tmp_path / "m.lp"
    code, _, _ = run_cli(["export-lp", "-p", policy_path("stateful-fw"),
                          "-t", TOPO, "--placement", str(pfile),
                          "-o", str(lp)], capsys)
    assert code == 0
    lines = lp.read_text().splitlines()
    assert any(line.startswith(" pslim_") for line in lines)
    assert any(line.startswith(" place_established:") for line in lines)
    bounds = [line for line in
              lines[lines.index("Bounds") + 1:lines.index("Binary")]
              if line.split()[2].startswith("P_established_")]
    assert " 1 <= P_established_C5 <= 1" in bounds
    assert len(bounds) == len(topo.example12().nodes)
    assert all(line.startswith(" 0 <= ") and line.endswith(" <= 0")
               for line in bounds if "_C5 " not in line)


def test_place_and_reroute(tmp_path, capsys):
    code, out, _ = run_cli(["place", "-p", policy_path("stateful-fw"),
                            "-t", TOPO], capsys)
    assert code == 0
    sol = json.loads(out)
    assert sol["routing"] and all(set(r) == {"u", "v", "nodes"}
                                  for r in sol["routing"])
    # the search's work: every placement of the one group on 12 switches
    assert sol["candidates"] == 12 ** len(sol["placement"]) == 12
    assert 1 <= sol["examined"] <= sol["candidates"]
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"placement": sol["placement"]}))
    code, out, _ = run_cli(["reroute", "-p", policy_path("stateful-fw"),
                            "-t", TOPO, "--placement", str(pfile)], capsys)
    assert code == 0
    te = json.loads(out)
    assert te["placement"] == sol["placement"]
    assert te["candidates"] == te["examined"] == 1


@pytest.mark.parametrize("command", ["compile", "reroute"])
def test_disconnected_topology_is_infeasible_exit_2(tmp_path, capsys,
                                                    command):
    """Two switches with no link between them: compile searches the
    placement (ST mode) and reroute keeps the fixed one (TE mode), and
    neither finds a walk for the flow, so each exits 2 with one
    `infeasible:` line and writes nothing."""
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({**_two_switches(), "links": []}))
    pol = tmp_path / "p.snap"
    pol.write_text("state s[1] default 0;\ns[0]++; outport <- 2\n")
    out = tmp_path / "b"
    argv = [command, "-p", str(pol), "-t", str(tfile)]
    if command == "compile":
        argv += ["-o", str(out)]
        says = "no placement admits an order-respecting routing"
    else:
        pfile = tmp_path / "placement.json"
        pfile.write_text(json.dumps({"placement": {"s": "A"}}))
        argv += ["--placement", str(pfile)]
        says = "no order-respecting routing under the fixed placement"
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith(f"infeasible: {says}") and err.count("\n") == 1
    assert not out.exists()


def test_stateless_flow_without_a_walk_fails_a_shortlist_search(tmp_path,
                                                                capsys):
    """A search over a shortlist (budget 1, below the two placements)
    routes the flows that need no state once, before any placement: on
    two unlinked switches the flow from port 1 needs no state and has no
    walk, so the compile exits 2 and writes nothing."""
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({**_two_switches(), "links": []}))
    pol = tmp_path / "p.snap"
    pol.write_text("state s[1] default 0;\n"
                   "(if inport = 2 then s[0]++ else id); outport <- 2\n")
    out = tmp_path / "b"
    code, stdout, err = run_cli(["compile", "-p", str(pol), "-t", str(tfile),
                                 "-o", str(out), "--budget", "1"], capsys)
    assert (code, stdout) == (2, "")
    assert err == "infeasible: a stateless flow has no path\n"
    assert not out.exists()


def test_simulate_interleaved_output_and_event_file(tmp_path, capsys):
    """`simulate --mode interleaved --seed` prints what the simulator emits
    under that seed once every injection has run, and `--events` writes
    its event trace as JSON lines, in either mode."""
    pols = ["-p", policy_path("stateful-fw"), "-p",
            policy_path("assign-egress")]
    bundle = tmp_path / "b"
    code, _, _ = run_cli(["compile", *pols, "-t", TOPO, "-o", str(bundle)],
                         capsys)
    assert code == 0
    hosts = ["10.0.1.10", "10.0.3.10", "10.0.4.11", "10.0.6.10"]
    rows = [{"port": int(a.split(".")[2]),
             "packet": {"inport": int(a.split(".")[2]), "srcip": a,
                        "dstip": b, "srcport": 80, "dstport": 1024}}
            for a in hosts for b in hosts if a != b]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in rows))
    t = topo.load(TOPO)
    for mode in ("serialized", "interleaved"):
        events = tmp_path / f"{mode}.jsonl"
        code, out, _ = run_cli(["simulate", "--bundle", str(bundle),
                                "--topo", TOPO, "--trace", str(trace),
                                "--mode", mode, "--seed", "5",
                                "--events", str(events)], capsys)
        assert code == 0
        net = simnet.load(str(bundle), t, seed=5, events=True)
        for port, pkt in simnet.read_trace(str(trace), t,
                                           net.bundle.fields):
            net.inject(port, pkt, mode=mode)
        net.run()
        assert net.emissions and [json.loads(line)
                                  for line in out.splitlines()] == [
            {"port": port, "packet": {f: values.value_to_json(v)
                                      for f, v in pkt.items()}}
            for port, pkt in net.emissions]
        assert [json.loads(line) for line in
                events.read_text().splitlines()] == simnet.trace_to_json(
                    net.trace)


def test_empty_placement_routes_a_stateless_program(tmp_path, capsys):
    """An empty --placement is still a fixed placement: a program without
    state variables is routed under it in TE mode."""
    pfile = tmp_path / "p.json"
    pfile.write_text("{}")
    argv = ["-p", policy_path("assign-egress"), "-t", TOPO,
            "--placement", str(pfile)]
    code, out, _ = run_cli(["reroute", *argv], capsys)
    assert code == 0 and json.loads(out)["placement"] == {}
    code, out, _ = run_cli(["compile", *argv, "-o", str(tmp_path / "b")],
                           capsys)
    assert code == 0 and json.loads(out)["placement"] == {}
    assert rulegen.load_bundle(str(tmp_path / "b"),
                               topo.load(TOPO)).mode == "TE"


def test_over_capacity_routing_warns_and_exits_0(tmp_path, capsys):
    """stateful-fw on generated(20, 3) under a budget of 64 is routed over
    the capacity of links at S15: every command that solves says so on
    stderr, one line per link, and still exits 0 with its usual JSON."""
    tfile = tmp_path / "g20.json"
    tfile.write_text(json.dumps(topo.to_json(topo.generated(20, 3))))
    policy = ["-p", policy_path("stateful-fw"),
              "-p", policy_path("assign-egress")]
    bundle = tmp_path / "b"
    code, out, err = run_cli(["compile", *policy, "-t", str(tfile),
                              "-o", str(bundle), "--budget", "64"], capsys)
    assert code == 0
    info = json.loads(out)
    assert set(info) == {"placement", "objective", "exact", "output"}
    assert info["exact"] is False
    assert info["placement"] == {"established": "S15"}
    warnings = [l for l in err.splitlines() if l.startswith("warning:")]
    assert "warning: link S15->S3 carries 19.29 > capacity 10.0" in warnings
    assert len(warnings) == 6
    assert all("S15" in l for l in warnings)

    code, out, err2 = run_cli(["place", *policy, "-t", str(tfile),
                               "--budget", "64"], capsys)
    assert code == 0
    assert json.loads(out)["exact"] is False
    assert [l for l in err2.splitlines() if l.startswith("warning:")] \
        == warnings
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"placement": info["placement"]}))
    code, out, err3 = run_cli(["reroute", *policy, "-t", str(tfile),
                               "--placement", str(pfile)], capsys)
    assert code == 0
    assert json.loads(out)["exact"] is False
    assert "warning: link S15->S3" in err3

    # the certificate check still refuses the routing
    code, out, _ = run_cli(["check", "--bundle", str(bundle),
                            "--topo", str(tfile), *policy], capsys)
    assert code == 2
    assert any(p.startswith("cap_S15_S3:")
               for p in json.loads(out)["problems"])


def test_unexposed_outport_warns_and_exits_0(tmp_path, capsys):
    """`outport <- 99` on example12, whose ports are 1 to 6: the
    simulator drops such a packet where the interpreter returns it, so
    `compile` and `reroute` say so on stderr, once, and still exit 0 with
    their usual JSON; the exposed port 1 is not named."""
    policy = tmp_path / "p.snap"
    policy.write_text("outport <- 99 + outport <- 1")
    argv = ["-p", str(policy), "-t", TOPO]
    line = ("warning: the program sets outport 99, which no switch "
            "exposes; the simulator drops such packets")
    code, out, err = run_cli(["compile", *argv, "-o", str(tmp_path / "b")],
                             capsys)
    assert code == 0
    assert set(json.loads(out)) == {"placement", "objective", "exact",
                                    "output"}
    assert [l for l in err.splitlines() if l.startswith("warning:")] \
        == [line]
    pfile = tmp_path / "placement.json"
    pfile.write_text("{}")
    code, out, err = run_cli(["reroute", *argv, "--placement", str(pfile)],
                             capsys)
    assert code == 0 and json.loads(out)["placement"] == {}
    assert [l for l in err.splitlines() if l.startswith("warning:")] \
        == [line]


def test_console_entry_point_help():
    r = subprocess.run([sys.executable, "-m", "snapnet.cli", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "compile" in r.stdout and "simulate" in r.stdout
