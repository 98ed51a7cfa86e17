"""Unit tests for the cached ProgramAnalyzer driver."""

import threading

from vidb.analysis import ProgramAnalyzer, analyze
from vidb.query.parser import parse_program, parse_query

PROGRAM = parse_program("""
    appears(O, G) :- interval(G), object(O), O in G.entities.
    orphan(X) :- object(X).
""")
QUERY = parse_query("?- appears(O, G).")


class TestCaching:
    def test_program_level_hit(self):
        analyzer = ProgramAnalyzer()
        first = analyzer.analyze(PROGRAM)
        second = analyzer.analyze(PROGRAM)
        assert second is first
        assert (analyzer.hits, analyzer.misses) == (1, 1)

    def test_query_level_hit(self):
        # Only the program level is cached; the query passes re-run.
        analyzer = ProgramAnalyzer()
        first = analyzer.analyze(PROGRAM, QUERY)
        second = analyzer.analyze(PROGRAM, QUERY)
        assert second.diagnostics == first.diagnostics
        assert (analyzer.hits, analyzer.misses) == (1, 1)

    def test_alpha_equivalent_queries_share_an_entry(self):
        analyzer = ProgramAnalyzer()
        analyzer.analyze(PROGRAM, parse_query("?- appears(O, G)."))
        analyzer.analyze(PROGRAM, parse_query("?- appears(X, Y)."))
        assert analyzer.hits == 1

    def test_different_edb_misses(self):
        analyzer = ProgramAnalyzer()
        analyzer.analyze(PROGRAM, QUERY, edb={"rel"})
        analyzer.analyze(PROGRAM, QUERY, edb={"rel", "other"})
        assert analyzer.misses == 2

    def test_different_world_assumption_misses(self):
        analyzer = ProgramAnalyzer()
        open_world = analyzer.analyze(PROGRAM, QUERY, closed_world=False)
        closed = analyzer.analyze(PROGRAM, QUERY, closed_world=True)
        assert analyzer.misses == 2
        assert open_world is not closed

    def test_equal_program_text_hits_across_objects(self):
        # Cache keys are value-based (fingerprint), not identity-based.
        analyzer = ProgramAnalyzer()
        analyzer.analyze(parse_program("p(X) :- object(X)."))
        analyzer.analyze(parse_program("p(X) :- object(X)."))
        assert analyzer.hits == 1

    def test_clear_forgets(self):
        analyzer = ProgramAnalyzer()
        analyzer.analyze(PROGRAM, QUERY)
        analyzer.clear()
        analyzer.analyze(PROGRAM, QUERY)
        assert (analyzer.hits, analyzer.misses) == (0, 2)

    def test_lru_evicts_oldest(self):
        analyzer = ProgramAnalyzer(max_entries=2)
        programs = [parse_program(f"p{i}(X) :- object(X).")
                    for i in range(3)]
        for program in programs:
            analyzer.analyze(program)
        analyzer.analyze(programs[0])  # evicted: misses again
        assert analyzer.misses == 4

    def test_cached_result_matches_uncached(self):
        analyzer = ProgramAnalyzer()
        cached = analyzer.analyze(PROGRAM, QUERY)
        direct = analyze(PROGRAM, QUERY)
        assert cached.diagnostics == direct.diagnostics
        assert cached.reachable == direct.reachable


    def test_new_query_text_reuses_the_program_level_result(self):
        analyzer = ProgramAnalyzer()
        first = analyzer.analyze(PROGRAM, QUERY)
        second = analyzer.analyze(PROGRAM, parse_query("?- orphan(X)."))
        assert (analyzer.hits, analyzer.misses) == (1, 1)
        # one whole-program dataflow, computed once and shared
        assert second.dataflow is first.dataflow
        assert second.dataflow is analyzer.analyze(PROGRAM).dataflow

    def test_merged_diagnostics_are_identical_to_a_full_run(self):
        with open("tests/fixtures/lint_bad.vdb", encoding="utf-8") as handle:
            text = "".join(line for line in handle
                           if not line.startswith("?-"))
        program = parse_program(text)
        analyzer = ProgramAnalyzer()
        for query_text in ("?- dead(G).", "?- pairs(A, B), redundant(A).",
                           "?- interval(G), G.start < 1, G.start > 2."):
            query = parse_query(query_text)
            for streaming in (False, True):
                cached = analyzer.analyze(program, query,
                                          streaming=streaming)
                direct = analyze(program, query, streaming=streaming)
                assert ([d.render() for d in cached.diagnostics]
                        == [d.render() for d in direct.diagnostics])
                assert cached.reachable == direct.reachable
                assert cached.streaming == direct.streaming


class TestThreadSafety:
    def test_concurrent_mixed_analyses(self):
        analyzer = ProgramAnalyzer(max_entries=8)
        programs = [parse_program(f"p{i}(X) :- object(X).")
                    for i in range(4)]
        errors = []

        def worker(seed):
            try:
                for i in range(40):
                    analyzer.analyze(programs[(seed + i) % len(programs)])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert analyzer.hits + analyzer.misses == 240
