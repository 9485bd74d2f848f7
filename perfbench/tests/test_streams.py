"""The same seed gives byte-identical request bodies; another seed does not."""

from streams import (SweepFleet, fixed_chunks, hourly_stream, requests,
                     simulate_profiles, split)


def _bodies(seed: int) -> list[bytes]:
    streams = split(hourly_stream(simulate_profiles(seed)), 2)
    bodies = []
    for index, stream in enumerate(streams):
        for jsonl, chunks in ((False, fixed_chunks(0, len(stream), 256)),
                              (True, fixed_chunks(0, len(stream), 23))):
            source = requests(stream, chunks, connection=index, jsonl=jsonl)
            bodies.extend(next(source).body for _ in range(len(chunks) + 3))
    sweep = SweepFleet(simulate_profiles(seed)).sweep_stream(0, 2)
    bodies.extend(request.body for request in requests(
        sweep, fixed_chunks(0, len(sweep), 4096), connection=0,
        jsonl=False, passes=1))
    return bodies


def test_same_seed_same_bytes():
    assert _bodies(3) == _bodies(3)


def test_other_seed_other_bytes():
    first, second = _bodies(3), _bodies(4)
    assert first != second
    assert not set(first) & set(second)


def test_passes_rename_drives_and_keep_order():
    stream = split(hourly_stream(simulate_profiles(5)), 2)[0]
    chunks = fixed_chunks(0, len(stream), 256)
    source = requests(stream, chunks, connection=0, jsonl=True)
    first_pass = [next(source) for _ in chunks]
    second = next(source)
    assert second.pass_index == 1 and second.rows == chunks[0]
    assert b'.p1"' in second.body and b'.p1"' not in first_pass[0].body
    hours = [hour for request in first_pass
             for hour in (stream.hours[row] for row in request.rows)]
    assert hours == sorted(hours)


def test_sweep_sends_every_drive_once_per_sweep():
    fleet = SweepFleet(simulate_profiles(6), n_drives=500)
    sweep = fleet.sweep_stream(0, 2)
    assert len(sweep) == 1000
    assert len(set(sweep.serials[:500])) == 500
    assert sweep.serials[:500] == sweep.serials[500:]
