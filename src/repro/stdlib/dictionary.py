"""The dictionary database with request combining of §2.7.1.

"Each time a request arrives asking for the meaning of a word, a new
process is created which then searches the dictionary for that particular
word and returns its meaning. ... Since it is wasteful to execute multiple
Search processes that search for the meaning of the same word, the
object's manager can be programmed to recognize such requests and to
combine them."

``search`` is a hidden procedure array ``Search[1..SearchMax]`` and the
manager intercepts both the parameter (the word) and the result (the
meaning) — the paper's ``intercepts Search(String; String)``.  The first
request for a word is started; later requests for the same in-flight word
are *combined*: when the leader's result is awaited, every follower is
finished with the same meaning and no body ever runs for it.
"""

from __future__ import annotations

from ..core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Combiner,
    Finish,
    Start,
    entry,
    icpt,
    manager_process,
)
from ..kernel.syscalls import Charge, Select


class Dictionary(AlpsObject):
    """``object Dictionary`` — combining duplicate searches.

    Configuration: ``entries`` (the word → meaning mapping), ``search_max``
    (array size = max simultaneous searches), ``search_work`` (ticks one
    search takes) and ``combining`` (False disables combining so benchmark
    E3 can measure its benefit).
    """

    def setup(
        self,
        entries: dict | None = None,
        search_max: int = 8,
        search_work: int = 50,
        combining: bool = True,
    ) -> None:
        self.entries = dict(entries or {})
        self.search_max = search_max
        self.search_work = search_work
        self.combining = combining
        #: Number of body executions actually performed (tests/benches).
        self.searches_executed = 0

    @entry(returns=1, array="search_max")
    def search(self, word):
        """Search the dictionary for Word and return its meaning."""
        self.searches_executed += 1
        if self.search_work:
            yield Charge(self.search_work, label="search")
        return self.entries.get(word, f"<{word}: not found>")

    @manager_process(intercepts={"search": icpt(params=1, results=1)})
    def mgr(self):
        combiner: Combiner[str] = Combiner()
        select = Select(
            AcceptGuard(self, "search"),
            AwaitGuard(self, "search"),
        )
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, AcceptGuard):
                (word,) = call.intercepted_args
                if self.combining and not combiner.join(word, call):
                    # "record that Word is now being searched on behalf of
                    # Search[i]" — the follower waits for the leader.
                    continue
                yield Start(call)
            else:
                (meaning,) = call.intercepted_results
                word = call.args[0]
                yield Finish(call, meaning)
                for follower in combiner.settle(word):
                    # finish without start: combining (§2.7).
                    yield Finish(follower, meaning)
