"""Point-to-point semantics of the simulated MPI runtime."""

import numpy as np
import pytest

from repro.errors import DeadlockError, MPIError, RankFailedError
from repro.mpi import ANY_SOURCE, ANY_TAG, Request, World, run_mpi
from repro.mpi.message import snapshot_payload


class TestSendRecv:
    def test_simple_pair(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        assert run_mpi(2, main)[1] == {"x": 1}

    def test_ring(self):
        def main(comm):
            comm.send(comm.rank, (comm.rank + 1) % comm.size, tag=1)
            return comm.recv(source=(comm.rank - 1) % comm.size, tag=1)

        assert run_mpi(6, main) == [5, 0, 1, 2, 3, 4]

    def test_numpy_payload_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(100, dtype=np.float64), 1)
                return None
            data = comm.recv(source=0)
            return float(data.sum())

        assert run_mpi(2, main)[1] == pytest.approx(4950.0)

    def test_structured_array_payload(self):
        dt = np.dtype([("position", "<f8", (3,)), ("id", "<f8")])

        def main(comm):
            if comm.rank == 0:
                arr = np.zeros(5, dtype=dt)
                arr["id"] = np.arange(5)
                comm.send(arr, 1)
                return None
            got = comm.recv(source=0)
            return got["id"].tolist()

        assert run_mpi(2, main)[1] == [0, 1, 2, 3, 4]

    def test_send_snapshots_buffer(self):
        """Mutating the send buffer after send must not affect the receiver."""

        def main(comm):
            if comm.rank == 0:
                arr = np.ones(10)
                comm.send(arr, 1, tag=0)
                arr[:] = -1  # reuse the buffer, as MPI allows
                comm.send(None, 1, tag=1)
                return None
            first = comm.recv(source=0, tag=0)
            comm.recv(source=0, tag=1)
            return float(first.sum())

        assert run_mpi(2, main)[1] == 10.0

    def test_fifo_per_source_and_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(10)]

        assert run_mpi(2, main)[1] == list(range(10))

    def test_tag_selectivity(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert run_mpi(2, main)[1] == ("a", "b")

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == 0:
                got = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(3)]
                return sorted(got)
            comm.send(comm.rank * 10, 0, tag=comm.rank)
            return None

        assert run_mpi(4, main)[0] == [10, 20, 30]

    def test_recv_with_status(self):
        def main(comm):
            if comm.rank == 1:
                comm.send("hello", 0, tag=9)
                return None
            if comm.rank == 0:
                payload, src, tag = comm.recv_with_status(source=ANY_SOURCE)
                return (payload, src, tag)
            return None

        assert run_mpi(2, main)[0] == ("hello", 1, 9)

    def test_self_send(self):
        def main(comm):
            comm.send(comm.rank, comm.rank, tag=0)
            return comm.recv(source=comm.rank, tag=0)

        assert run_mpi(3, main) == [0, 1, 2]

    def test_invalid_dest(self):
        def main(comm):
            comm.send(1, dest=99)

        with pytest.raises(RankFailedError):
            run_mpi(2, main)

    def test_negative_tag_rejected(self):
        def main(comm):
            comm.send(1, dest=0, tag=-5)

        with pytest.raises(RankFailedError):
            run_mpi(1, main)


#: An aligned record: 7 padding bytes after ``flag``.
PADDED = np.dtype([("position", "<f8", (3,)), ("flag", "u1"), ("w", "<f8")], align=True)


def raw_records(dtype, count, seed=0):
    """``count`` records whose every byte, padding included, is random,
    with a NaN carrying payload bits and a negative zero in ``w``."""
    raw = np.random.default_rng(seed).integers(0, 256, count * dtype.itemsize, dtype=np.uint8)
    arr = raw.view(dtype)
    arr["w"][0] = -0.0
    arr["w"][1:2].view(np.uint64)[0] = 0x7FF8_0000_DEAD_BEEF
    return arr


class TestRawCopies:
    """Arrays travel as opaque bytes; only object arrays are copied by
    reference, as ``ndarray.copy()`` does."""

    def test_padded_record_arrives_byte_for_byte(self):
        sent = raw_records(PADDED, 9)
        assert PADDED.itemsize == 40  # 24 + 1, padded to 32, + 8

        def main(comm):
            if comm.rank == 0:
                comm.isend(sent, 1, tag=3).wait()
                return None
            return comm.recv(source=0, tag=3)

        got = run_mpi(2, main)[1]
        assert got.dtype == PADDED and got.tobytes() == sent.tobytes()
        assert np.signbit(got["w"][0]) and np.isnan(got["w"][1])

    def test_strided_rows_arrive_byte_for_byte(self):
        rows = raw_records(PADDED, 12, seed=1)[::3]
        got, nbytes = snapshot_payload(rows)
        assert got.flags.c_contiguous and nbytes == rows.nbytes
        assert got.tobytes() == b"".join(rows[i : i + 1].tobytes() for i in range(len(rows)))

    def test_receiver_isolated_from_sender_mutation(self):
        sent = raw_records(PADDED, 6, seed=2)
        original = sent.tobytes()

        def main(comm):
            if comm.rank == 0:
                req = comm.isend(sent, 1, tag=0)
                sent["position"] = -1.0  # reuse the buffer right after isend
                sent.view(np.uint8)[:] = 0
                req.wait()
                comm.send(None, 1, tag=1)
                return None
            first = comm.recv(source=0, tag=0)
            comm.recv(source=0, tag=1)
            return first

        assert run_mpi(2, main)[1].tobytes() == original

    def test_object_array_copies_references(self):
        a, b = {"a": 1}, [1, 2]
        payload = np.array([a, b, None], dtype=object)
        got, _ = snapshot_payload(payload)
        assert got is not payload and got[0] is a and got[1] is b
        payload[0] = "reused"
        assert got[0] is a

    def test_record_with_object_field_copies_references(self):
        tag = {"k": 3}
        dt = np.dtype([("position", "<f8", (3,)), ("tag", "O")])
        payload = np.zeros(2, dtype=dt)
        payload["tag"][0] = tag
        got, _ = snapshot_payload(payload)
        assert got.dtype == dt and got["tag"][0] is tag
        payload["tag"][0] = None
        assert got["tag"][0] is tag


class TestNonBlocking:
    def test_isend_irecv_waitall(self):
        def main(comm):
            reqs = [
                comm.isend(comm.rank * 100 + d, d, tag=7) for d in range(comm.size)
            ]
            recvs = [comm.irecv(source=s, tag=7) for s in range(comm.size)]
            Request.waitall(reqs)
            return Request.waitall(recvs)

        out = run_mpi(4, main)
        for rank, got in enumerate(out):
            assert got == [s * 100 + rank for s in range(4)]

    def test_test_polls_without_blocking(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=0)
                done, _ = req.test()
                comm.send(None, 1, tag=1)  # release the sender
                payload = req.wait()
                return payload
            comm.recv(source=0, tag=1)
            comm.send(42, 0, tag=0)
            return None

        assert run_mpi(2, main)[0] == 42

    def test_request_status_before_completion_raises(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=0)
                try:
                    _ = req.status
                except RuntimeError:
                    comm.send(None, 1, tag=9)
                    req.wait()
                    return "ok"
                return "no error"
            comm.recv(source=0, tag=9)
            comm.send(1, 0, tag=0)
            return None

        assert run_mpi(2, main)[0] == "ok"


class TestFailureHandling:
    def test_rank_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            return comm.rank

        with pytest.raises(RankFailedError) as exc_info:
            run_mpi(4, main)
        assert 1 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[1], ValueError)

    def test_blocked_peers_abort_after_failure(self):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("dies before sending")
            comm.recv(source=0)  # would block forever without the abort

        with pytest.raises(RankFailedError) as exc_info:
            run_mpi(2, main, block_timeout=0.05)
        assert isinstance(exc_info.value.failures[0], RuntimeError)

    def test_deadlock_detected(self):
        def main(comm):
            # Everyone receives; nobody sends.
            comm.recv(source=(comm.rank + 1) % comm.size, tag=0)

        with pytest.raises(RankFailedError) as exc_info:
            run_mpi(2, main, block_timeout=0.05)
        assert any(
            isinstance(e, (DeadlockError, MPIError))
            for e in exc_info.value.failures.values()
        )

    def test_world_size_mismatch(self):
        with pytest.raises(MPIError):
            run_mpi(4, lambda c: None, world=World(2))

    def test_single_rank_runs_inline(self):
        assert run_mpi(1, lambda c: c.size) == [1]

    def test_per_rank_args(self):
        out = run_mpi(
            3,
            lambda c, base, extra: base + extra,
            10,
            per_rank_args=[(1,), (2,), (3,)],
        )
        assert out == [11, 12, 13]

    def test_per_rank_args_length_checked(self):
        with pytest.raises(MPIError):
            run_mpi(3, lambda c: None, per_rank_args=[()])
