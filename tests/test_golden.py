import golden


def test_outputs_match_the_committed_digests():
    # what the commands in golden/outputs.txt print now, against what the
    # file recorded; `python tests/golden.py --write` rewrites it when output
    # moves on purpose, and `--compare` sizes the drift
    head, rows = golden.read()
    assert head == golden.versions(), (
        f"golden/outputs.txt was written with {head}, this is {golden.versions()}; "
        "last bits may differ across versions, so rewrite it with --write on this platform"
    )
    moved = []
    for argv, code, digest, last in rows:
        now = golden.record(argv)
        if now != (code, digest, last):
            moved.append(f"{' '.join(argv)}: exit {code} -> {now[0]}, {last!r} -> {now[2]!r}")
    assert not moved, f"{len(moved)} of {len(rows)} commands moved:\n" + "\n".join(moved)
