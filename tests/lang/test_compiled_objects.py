"""End-to-end tests: ALPS programs in their own notation.

The paper's §2 listings are loaded from ``examples/paper/`` (and matched
against their stdlib twins in ``test_paper_listings.py``); the inline
programs here each exercise one language feature.
"""

import pytest

from repro.kernel import Kernel, Par
from repro.kernel.costs import FREE
from repro.lang import LangRuntimeError, compile_program
from tests.paper_listings import buffer_twin, drive, instantiate, listing


class TestCompiledBuffer:
    def run_buffer(self, size, messages):
        kernel = Kernel(costs=FREE)
        buf = instantiate(kernel, "buffer_241", N=size)
        return drive(kernel, buf, buffer_twin(size, [list(range(messages))]).workload).outcomes[-1]

    def test_fifo_transfer(self):
        assert self.run_buffer(3, 10) == list(range(10))

    def test_size_one(self):
        assert self.run_buffer(1, 5) == list(range(5))


class TestCompiledDictionary:
    def test_hidden_array_with_intercepted_params_and_results(self):
        kernel = Kernel(costs=FREE)
        dictionary = instantiate(kernel, "dictionary_27", Meanings={"cat": "feline", "dog": "canine"})
        run = drive(kernel, dictionary, [[("Search", "cat")], [("Search", "dog")]])
        assert run.outcomes == [["feline"], ["canine"]]
        assert run.counters["starts"] == 2

    def test_concurrent_searches_overlap(self):
        kernel = Kernel(costs=FREE)
        dictionary = instantiate(kernel, "dictionary_27", Meanings={"a": 1, "b": 2, "c": 3, "d": 4})
        run = drive(kernel, dictionary, [[("Search", w)] for w in "abcd"])
        assert run.outcomes == [[1], [2], [3], [4]]
        # Four 50-tick searches overlapped on the hidden array.
        assert run.now == 50


class TestCompiledReadersWriters:
    def test_readers_overlap_writers_exclude(self):
        kernel = Kernel(costs=FREE)
        db = instantiate(kernel, "database_251", Store={"k": 0})
        drive(kernel, db, [[("Read", "k")]] * 8)
        # 8 reads of 10 ticks with up-to-4 concurrency: 2 waves ≈ 20-40.
        assert kernel.clock.now < 8 * 10


COMBINING_SOURCE = """
object Oracle defines
  proc Ask() returns (Answer);
end Oracle;

object Oracle implements
  proc Ask() returns (1);
  begin
    return (0);
  end Ask;

  manager intercepts Ask;
  begin
    loop
      accept Ask =>
        finish Ask(42);
    end loop;
  end manager;
end Oracle;
"""


class TestCompiledCombining:
    def test_finish_without_start(self):
        kernel = Kernel()
        module = compile_program(COMBINING_SOURCE)
        oracle = module.instantiate(kernel, "Oracle")

        def client():
            return (yield oracle.call("Ask"))

        assert kernel.run_process(client) == 42
        assert kernel.stats.starts == 0
        assert kernel.stats.calls_combined == 1


CELL_SOURCE = """
object Cell defines
  proc Put(Value);
  proc Get() returns (Value);
end Cell;

object Cell implements
  var Content := nil;
  var LastPut := nil;
  proc Put(V); begin Content := V + 10; end Put;
  proc Get() returns (1); begin return (Content); end Get;
  manager intercepts Put(X), Get;
  begin
    loop
      when true =>
        accept Put(X);
        LastPut := X;
        start Put(X);
        await Put;
        finish Put;
        accept Get;
        execute Get;
    end loop;
  end manager;
end Cell;
"""

ASK_SOURCE = """
object Adder defines
  proc Ask(X) returns (Y);
end Adder;

object Adder implements
  proc Ask(X) returns (1); begin return (X * 2); end Ask;
  manager intercepts Ask(X; R);
  begin
    loop
      when true =>
        accept Ask(X);
        start Ask(X);
        await Ask(R);
        finish Ask(R + X);
    end loop;
  end manager;
end Adder;
"""

JOBS_SOURCE = """
object Jobs defines
  proc Job(Level) returns (Done);
end Jobs;

object Jobs implements
  var Accepted := array(3);
  var Finished := array(3);
  var NA: int := 0;
  var NF: int := 0;
  proc Job[1..3](L) returns (1);
  begin work(1); return (L); end Job;
  manager intercepts Job(L; D);
  begin
    work(50);
    loop
      accept Job(L) when NA < 3 pri L =>
        Accepted[NA] := L;
        NA := NA + 1;
        start Job;
        work(20);
    or
      await Job(D) when NA = 3 pri 0 - D =>
        Finished[NF] := D;
        NF := NF + 1;
        finish Job;
    end loop;
  end manager;
end Jobs;
"""


class TestManagerStatements:
    """``accept``/``await`` written as statements, and ``pri`` on their
    guards: the same calls and the same virtual time as the guard forms."""

    def test_standalone_accept_start_await_finish(self):
        kernel = Kernel()
        cell = compile_program(CELL_SOURCE).instantiate(kernel, "Cell")

        def main():
            got = []
            for i in range(3):
                yield cell.call("Put", i)
                got.append((yield cell.call("Get")))
            return got

        assert kernel.run_process(main) == [10, 11, 12]
        assert cell.LastPut == 2
        assert kernel.clock.now == 38

    def test_await_statement_binds_intercepted_results(self):
        kernel = Kernel()
        adder = compile_program(ASK_SOURCE).instantiate(kernel, "Adder")

        def ask(x):
            return (yield adder.call("Ask", x))

        def main():
            return (yield Par(lambda: ask(5), lambda: ask(7)))

        assert kernel.run_process(main) == [15, 21]
        assert kernel.clock.now == 14

    @pytest.mark.parametrize("costs, end", [(None, 129), (FREE, 110)])
    def test_pri_orders_accept_and_await_arms(self, costs, end):
        kernel = Kernel() if costs is None else Kernel(costs=costs)
        jobs = compile_program(JOBS_SOURCE).instantiate(kernel, "Jobs")

        def job(level):
            return (yield jobs.call("Job", level))

        def main():
            return (yield Par(*[lambda l=l: job(l) for l in (2, 3, 1)]))

        assert kernel.run_process(main) == [2, 3, 1]
        # Smallest pri first: lowest level accepted first, highest
        # result awaited first (pri 0 - D), whatever the arrival order.
        assert jobs.Accepted == [1, 2, 3]
        assert jobs.Finished == [3, 2, 1]
        assert kernel.clock.now == end


CHANNEL_SOURCE = """
object Relay defines
  proc Run(Inbox, Outbox, Count);
end Relay;

object Relay implements
  proc Run(Inbox, Outbox, Count);
  var X := nil;
  var I: int := 0;
  begin
    while I < Count do
      receive Inbox(X);
      send Outbox(X * 10);
      I := I + 1;
    end while;
  end Run;
end Relay;
"""


class TestCompiledChannels:
    def test_send_receive_in_alps_source(self):
        from repro.channels import Channel, Receive, Send

        kernel = Kernel(costs=FREE)
        module = compile_program(CHANNEL_SOURCE)
        relay = module.instantiate(kernel, "Relay")
        inbox, outbox = Channel(), Channel()

        def feeder():
            for i in range(4):
                yield Send(inbox, i)

        def caller():
            yield relay.call("Run", inbox, outbox, 4)

        def collector():
            got = []
            for _ in range(4):
                got.append((yield Receive(outbox)))
            return got

        kernel.spawn(feeder)
        kernel.spawn(caller)
        proc = kernel.spawn(collector)
        kernel.run()
        assert proc.result == [0, 10, 20, 30]


    def test_receive_arms_with_when_and_pri(self):
        from repro.channels import Channel, Send

        kernel = Kernel()
        module = compile_program(
            """
            object Merge implements
              var Got := nil;
              proc Run(A, B, Count);
              var X := nil;
              var Y := nil;
              var N: int := 0;
              begin
                Got := array(Count);
                while N < Count do
                  select
                    receive A(X, Y) when X > 0 pri Y => Got[N] := X;
                  or
                    receive B(X, Y) when X > 0 pri Y => Got[N] := X * 100;
                  end select;
                  N := N + 1;
                end while;
              end Run;
            end Merge;
            """
        )
        merge = module.instantiate(kernel, "Merge")
        a, b = Channel(), Channel()

        def main():
            for message in [(0, 1), (1, 5), (2, 1)]:
                yield Send(a, *message)
            for message in [(3, 2), (4, 9)]:
                yield Send(b, *message)
            yield merge.call("Run", a, b, 4)

        kernel.run_process(main)
        # (0, 1) never passes 'when X > 0'; among the two ready arms
        # the smaller Y wins.
        assert merge.Got == [300, 1, 2, 400]
        assert len(a._queue) == 1
        assert kernel.clock.now == 8

    @staticmethod
    def _run_arm(arm: str, messages: list):
        """Run ``select <arm> end select`` once per message sent on ``A``;
        returns the object (its ``Got`` array has two cells)."""
        from repro.channels import Channel, Send

        kernel = Kernel(costs=FREE)
        module = compile_program(
            f"""
            object Take implements
              var Got := nil;
              var Seen := nil;
              proc Run(A, Count);
              var X := nil;
              var N: int := 0;
              begin
                Got := array(2);
                while N < Count do
                  select
                    {arm}
                  end select;
                  N := N + 1;
                end while;
              end Run;
            end Take;
            """
        )
        take = module.instantiate(kernel, "Take")
        a = Channel()

        def main():
            for message in messages:
                yield Send(a, *message)
            yield take.call("Run", a, len(messages))

        kernel.run_process(main)
        return take

    def test_receive_arm_assigns_element_targets(self):
        # As the statement ``receive A(Got[1]);`` does: the arm's
        # arguments are lvalues, not just names.
        take = self._run_arm("receive A(Got[1]) => Seen := Got[1];", [(7,)])
        assert take.Got == [None, 7]
        assert take.Seen == 7

    def test_receive_arm_assigns_mixed_targets(self):
        take = self._run_arm("receive A(X, Got[0]) when X > 1 => Seen := X;", [(2, 5)])
        assert take.Got == [5, None]
        assert take.Seen == 2

    def test_receive_arm_one_target_takes_the_whole_message(self):
        # ``receive A(X);`` binds a two-value message whole; so does the
        # arm, and its ``when`` sees what the body sees.
        take = self._run_arm("receive A(X) when X = X => Seen := X;", [(1, 2)])
        assert take.Seen == (1, 2)

    def test_receive_arm_target_count_mismatch_is_loud(self):
        with pytest.raises(LangRuntimeError, match="2 targets but message has 3 values"):
            self._run_arm("receive A(X, Got[0]) => skip;", [(1, 2, 3)])

class TestErrors:
    def test_unknown_object_rejected(self):
        module = compile_program(listing("buffer_241"))
        from repro.errors import ObjectModelError

        with pytest.raises(ObjectModelError):
            module.instantiate(Kernel(), "Nope")

    def test_missing_return_is_loud(self):
        kernel = Kernel()
        module = compile_program(
            """
            object T implements
              proc P() returns (1);
              begin skip; end P;
            end T;
            """
        )
        obj = module.instantiate(kernel, "T")

        def main():
            return (yield obj.call("P"))

        with pytest.raises(LangRuntimeError):
            kernel.run_process(main)

    def test_undefined_name_is_loud(self):
        kernel = Kernel()
        module = compile_program(
            """
            object T implements
              proc P(); begin X := Undefined + 1; end P;
            end T;
            """
        )
        obj = module.instantiate(kernel, "T")

        def main():
            yield obj.call("P")

        with pytest.raises(LangRuntimeError):
            kernel.run_process(main)

    def test_start_without_accept_is_loud(self):
        kernel = Kernel()
        module = compile_program(
            """
            object T implements
              proc P(); begin skip; end P;
              manager intercepts P;
              begin
                start P;
              end manager;
            end T;
            """
        )
        module.instantiate(kernel, "T")
        with pytest.raises(LangRuntimeError):
            kernel.run()


    def test_accept_outside_manager_is_loud(self):
        kernel = Kernel()
        module = compile_program(
            """
            object T implements
              proc P(); begin skip; end P;
              proc Q(); begin accept P; end Q;
            end T;
            """
        )
        obj = module.instantiate(kernel, "T")

        def main():
            yield obj.call("Q")

        with pytest.raises(LangRuntimeError, match="only allowed inside a manager"):
            kernel.run_process(main)

class TestCrossObjectCalls:
    def test_objects_call_each_other_by_name(self):
        kernel = Kernel(costs=FREE)
        module = compile_program(
            """
            object Doubler defines
              proc Double(X) returns (Y);
            end Doubler;

            object Doubler implements
              proc Double(X) returns (1);
              begin return (X * 2); end Double;
            end Doubler;

            object Client defines
              proc Go(X) returns (Y);
            end Client;

            object Client implements
              proc Go(X) returns (1);
              var R := nil;
              begin
                R := Doubler.Double(X);
                return (R + 1);
              end Go;
            end Client;
            """
        )
        module.instantiate(kernel, "Doubler")
        client = module.instantiate(kernel, "Client")

        def main():
            return (yield client.call("Go", 20))

        assert kernel.run_process(main) == 41
