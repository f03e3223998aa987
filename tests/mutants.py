"""Mutation checks: each row breaks the program in one known way, and the
tests it names must then fail. A later change that deletes or weakens the
only test that caught a mutant makes its row fail here.

A row is (file, old text, new text, tests that must fail); a row of
``EQUIVALENT`` names a mutant that changes no output, and its tests must
pass. The old text must occur exactly once (a stale row is an error, not a
pass). The script copies ``pyproject.toml``, ``src/`` and ``tests/`` to
one temporary directory per worker, min(2, usable CPUs) of them, so that
pyproject's ``pythonpath = ["src"]`` loads the mutated copy and not this
checkout's ``src``. The named tests must first pass on the unmutated
copies. The rows are then dealt to the workers round robin, and each
worker, one row at a time in its own copy, replaces the row's old text
and runs the row's tests with pytest, writing no bytecode, so no cached
module outlives its mutant, and with plain asserts: without bytecode,
pytest would rewrite the asserts of hypothesis' modules again at every
start (about 0.8 s a row), and a test passes or fails the same either
way. pytest's unraisable-exception plugin is off too: its five
``gc.collect`` calls at exit cost about 0.1 s a row, and under the
project's warning filters it only warns, so no test's outcome depends on
it. The results print in row order. pytest does not collect this file;
run it from anywhere as a script:

    python tests/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = "tests/test_golden.py::test_golden_output"
MULTIPLICITIES = "tests/test_dense.py::TestAlgebra::test_eigenspace_multiplicities"
INDICATORS = "tests/test_dense.py::TestAlgebra::test_indicators_are_views_of_one_unit_vector"
THREE_PRODUCTS = "tests/test_routes.py::test_statistics_dense_matches_three_products_at_each_n"
AT_THE_GUARD = "tests/test_routes.py::test_statistics_dense_matches_three_products_at_the_guard"
TRIALS = "tests/test_sampler.py::test_trial_frequencies_match_searchsorted_reference"
BLOCK_COUNTS = "            out[a : a + len(rows)] = _count_in(rows, lo, hi) / n\n"
MPMATH = "tests/test_routes.py::test_closed_forms_against_mpmath"
PEAK_TABLE = "tests/test_analytic.py::TestNoncollapse::test_peak_at_mode_matches_table"
FULL_TABLE = "tests/test_analytic.py::test_window_matches_full_table"
TIGHT = "tests/test_analytic.py::test_window_edges_are_tight"
DEGENERATE = "tests/test_analytic.py::TestSpectralWeights::test_degenerate_p"
VERIFY_TOL = "tests/test_cli.py::TestVerify::test_deviation_at_its_tolerance_passes"
CROSS_TOL = "tests/test_cli.py::TestStats::test_cross_check_deviation_at_its_tolerance_passes"
BOUNDARY = "tests/test_cli.py::test_guard_at_its_boundary_names_the_bad_field"
ZERO_ROWS = "tests/test_cli.py::TestCsvRows::test_zero_rows_match_the_template"
PAIRWISE = "tests/test_hilbert.py::TestStateVectorWithoutNumpy::test_pairwise_sum_matches_np_sum"
NORM_MESSAGE = "tests/test_hilbert.py::TestStateVector::test_norm_invariant_enforced"
TWO_LEVEL_P = "tests/test_hilbert.py::TestStateVector::test_two_level_refuses_p_outside_0_1"
OUTER_EDGES = "tests/test_routes.py::test_outer_edges_take_no_compare"
CPUS = "tests/test_sampler.py::test_cpus_count_this_process_mask_else_one"
# Trials on each path: a block of short ones, and long ones in chunks on threads.
CUTS = (f"{TRIALS}[complex_d5-101]", f"{TRIALS}[complex_d5-32769]", f"{TRIALS}[zero_last-131075]")
BLOCK_EDGE = (*CUTS, f"{TRIALS}[complex_d5-2048]", f"{TRIALS}[complex_d5-2049]")

# A pytest child still running after this many seconds is stopped: a mutant
# that stalls the sampler's threads must not hold the job until CI's limit.
CHILD_TIMEOUT_S = 60

MUTANTS = [
    # The run sums added left to right instead of up numpy's pairwise tree.
    ("src/freqop/dense.py",
     "    sums = pairwise_sum(lambda lo, size: next(runs), 0, total, _NODE)\n",
     "    sums = sum(runs)\n",
     (THREE_PRODUCTS, f"{GOLDEN}[stats_two_level_n20_cross_check]",
      f"{GOLDEN}[stats_uniform5_n8_cross_check]")),
    # The float weights' suffix folded as one digit, like the exact counts:
    # a block's weights lose the full fold's bits.
    ("src/freqop/dense.py",
     "        if ufunc is np.add:\n",
     "        if True:\n",
     (THREE_PRODUCTS, f"{GOLDEN}[stats_two_level_n20_cross_check]",
      "tests/test_cli.py::TestStats::test_cross_check_builds_each_vector_once")),
    # np.bincount on the int8 counts without the uint8 view: a count of -1
    # raises instead of landing outside the row as 255.
    ("src/freqop/dense.py",
     "np.bincount(counts.view(np.uint8), minlength=n + 1)",
     "np.bincount(counts, minlength=n + 1)",
     (f"{MULTIPLICITIES}[8-2]", f"{MULTIPLICITIES}[8-3]")),
    # sum_to_identity taken from the largest sum over j only: a string whose
    # counts sum below N goes unseen.
    ("src/freqop/dense.py",
     "float(diag_sum.max()) - 1, 1 - float(diag_sum.min()))",
     "float(diag_sum.max()) - 1)",
     (f"{MULTIPLICITIES}[2-3]", f"{MULTIPLICITIES}[8-2]")),
    # The site sum perturbed by up to 1 ulp, inside the routes' 1e-12 check.
    ("src/freqop/dense.py",
     "        plain = np.multiply.outer(plain, b).ravel()\n    return total\n",
     "        plain = np.multiply.outer(plain, b).ravel()\n    return total * (1 + 2**-52)\n",
     ("tests/test_dense.py::TestSiteSum::test_projector_sum_has_the_kron_bytes[2]",
      "tests/test_dense.py::TestSiteSum::test_structural_route_has_the_kron_bytes",
      f"{GOLDEN}[verify_d2_n6]")),
    # j's indicator read one entry off the shared unit vector: outcome j
    # counts j + 1, and outcome d - 1 is never walked.
    ("src/freqop/dense.py",
     "sliding_window_view(unit, d)[::-1]",
     "sliding_window_view(unit, d)[-2::-1]",
     (f"{INDICATORS}[16]", f"{MULTIPLICITIES}[2-3]", f"{GOLDEN}[verify_d4096_n1]")),
    # A block's weights as each prefix's weight times a table of the suffix
    # folds: the products associate otherwise and lose the full fold's bits.
    ("src/freqop/dense.py",
     "        yield (kron_fold(factor, sites, ufunc, start=prefixes[first:last])[skip : skip + size]\n",
     "        yield (ufunc.outer(prefixes[first:last], kron_fold(factor, sites, ufunc)).ravel()"
     "[skip : skip + size]\n",
     (THREE_PRODUCTS, f"{AT_THE_GUARD}[3]", f"{GOLDEN}[stats_two_level_n20_cross_check]")),
    # The literal diagonal as count * (1 / N): 5 * (1/7) is not 5/7 in binary.
    ("src/freqop/dense.py",
     "(s.count(j) / n for s in strings)",
     "(s.count(j) * (1 / n) for s in strings)",
     ("tests/test_dense.py::TestBuild::test_literal_diagonal_bytes_match_a_per_string_reference",
      f"{GOLDEN}[verify_d3_n7]")),
    # numpy's pairwise tree with leaves of up to 129 terms, or eight
    # interleaved sums only above 8 terms: the norm check loses np.sum's
    # bits, and with them numpy's accept/refuse set.
    ("src/freqop/hilbert.py",
     "size: int = 128)",
     "size: int = 129)",
     (PAIRWISE,)),
    ("src/freqop/hilbert.py",
     "    if n < 8:\n",
     "    if n <= 8:\n",
     (PAIRWISE,)),
    ("src/freqop/hilbert.py",
     "    if n < 8:\n",
     "    if n < 9:\n",
     (PAIRWISE,)),
    # The refusal's |norm - 1| taken from 0 or 2.
    ("src/freqop/hilbert.py",
     "{abs(norm - 1.0):.3e}",
     "{abs(norm - 0.0):.3e}",
     (NORM_MESSAGE,)),
    ("src/freqop/hilbert.py",
     "{abs(norm - 1.0):.3e}",
     "{abs(norm - 2.0):.3e}",
     (NORM_MESSAGE,)),
    # A Born weight capped at 2: a state just above unit norm has one above 1.
    ("src/freqop/hilbert.py",
     "self._parts[2 * i + 1])) ** 2, 1.0)",
     "self._parts[2 * i + 1])) ** 2, 2.0)",
     ("tests/test_hilbert.py::TestStateVectorWithoutNumpy::test_probability_is_at_most_1",)),
    # uniform of dimension 0 built, with no amplitude.
    ("src/freqop/hilbert.py",
     '        if dim < 1:\n            raise ValueError(f"uniform',
     '        if dim < 0:\n            raise ValueError(f"uniform',
     ("tests/test_hilbert.py::TestStateVector::test_uniform_dim_below_one_refused[0]",)),
    # two_level's p range widened: sqrt of a negative raises its own message.
    ("src/freqop/hilbert.py",
     "if not 0.0 <= p <= 1.0:",
     "if not -1.0 <= p <= 1.0:",
     (f"{TWO_LEVEL_P}[-0.1]",)),
    ("src/freqop/hilbert.py",
     "if not 0.0 <= p <= 1.0:",
     "if not 0.0 <= p <= 2.0:",
     (f"{TWO_LEVEL_P}[1.5]",)),
    # A JSON state guarded as if it were N = 2: d above 1024 refused.
    ("src/freqop/hilbert.py",
     "check_vector_scale(dim, 1)\n        if not isinstance(amps",
     "check_vector_scale(dim, 2)\n        if not isinstance(amps",
     ("tests/test_hilbert.py::TestStateVector::test_json_dim_above_the_guards_square_root_is_read",)),
    # A basis index of -1 accepted.
    ("src/freqop/hilbert.py",
     "if not 0 <= i < d:",
     "if not -1 <= i < d:",
     ("tests/test_hilbert.py::TestIndexing::test_out_of_range",)),
    # uniform's parts 1e-9 off, which no norm check of its own would see.
    ("src/freqop/hilbert.py",
     '(1.0 / math.sqrt(dim), 0.0)',
     '(1.0 / math.sqrt(dim) * (1 + 1e-9), 0.0)',
     ("tests/test_hilbert.py::TestStateVectorWithoutNumpy::test_uniform_passes_the_norm_check",
      "tests/test_hilbert.py::TestStateVector::test_large_uniform_is_normalized[1048576]",
      "tests/test_hilbert.py::TestStateVectorWithoutNumpy::"
      "test_uniform_parts_pass_the_checked_path_unchanged[2]")),
    # A word compared with t << 11 alone: the draws whose low 11 bits are
    # not all zero, at the threshold's top 53 bits, fall outside.
    ("src/freqop/sampler.py",
     "words <= ((t << 11) | 2047)",
     "words <= (t << 11)",
     ("tests/test_routes.py::test_word_thresholds_match_float_draws",)),
    # The last partial block of short trials never drawn: its frequencies
    # are whatever np.empty held.
    ("src/freqop/sampler.py",
     "        for a in range(0, len(out), len(block)):\n",
     "        for a in range(0, len(out) - len(out) % len(block), len(block)):\n",
     (f"{TRIALS}[complex_d5-101]", f"{GOLDEN}[sample]",
      "tests/test_acceptance.py::test_criterion_7_monte_carlo")),
    # A block's rows written one trial off.
    ("src/freqop/sampler.py",
     BLOCK_COUNTS,
     "            out[a : a + len(rows)] = np.roll(_count_in(rows, lo, hi) / n, 1)\n",
     (f"{TRIALS}[two_level-101]", f"{TRIALS}[zero_last-2048]", f"{GOLDEN}[sample_csv]")),
    # A block of short trials counts every word at or below the interval's
    # top, outcome j's and all below it: the count at or below lo is dropped.
    ("src/freqop/sampler.py",
     BLOCK_COUNTS,
     "            out[a : a + len(rows)] = _count_at_most(rows, hi) / n\n",
     (f"{TRIALS}[two_level-101]", f"{TRIALS}[complex_d5-1000]", f"{TRIALS}[zero_middle-101]")),
    # Each re-keyed stream starts with a full buffer of stale words: the
    # state is no longer that of a fresh Philox(key=k).
    ("src/freqop/sampler.py",
     '"buffer_pos": 4',
     '"buffer_pos": 0',
     ("tests/test_sampler.py::test_rekeyed_state_is_fresh_philox_state[0]",
      "tests/test_sampler.py::test_uniforms_match_fresh_philox[101]")),
    # A long trial's chunk bound to a name, which keeps it while the next
    # chunk is drawn: two chunks a worker, the same counts.
    ("src/freqop/sampler.py",
     "            count += _count_in(stream.random_raw(min(_CHUNK, n - start)), lo, hi)\n",
     "            words = stream.random_raw(min(_CHUNK, n - start))\n"
     "            count += _count_in(words, lo, hi)\n",
     ("tests/test_sampler.py::test_each_worker_holds_one_chunk[1]",)),
    # A long trial's frequency as count * (1 / n), off by an ulp for some counts.
    ("src/freqop/sampler.py",
     "        out[i] = count / n\n",
     "        out[i] = count * (1 / n)\n",
     (f"{TRIALS}[two_level-2049]", f"{TRIALS}[complex_d5-32769]")),
    # The edge -1 or 2**53 compared with the words, although its
    # (t << 11) | 2047 lies outside uint64.
    ("src/freqop/sampler.py",
     "    if t < 0:\n",
     "    if t < -1:\n",
     (OUTER_EDGES,)),
    ("src/freqop/sampler.py",
     "if t >= 2**53:",
     "if t > 2**53:",
     (OUTER_EDGES,)),
    ("src/freqop/sampler.py",
     "if t >= 2**53:",
     "if t >= 3**53:",
     (OUTER_EDGES,)),
    ("src/freqop/sampler.py",
     "if t >= 2**53:",
     "if t >= 2**54:",
     (OUTER_EDGES,)),
    # The last error a thread raised, not the first.
    ("src/freqop/sampler.py",
     "raise errors[0]",
     "raise errors[-1]",
     ("tests/test_sampler.py::test_parallel_raises_the_first_error_a_thread_raised",)),
    # The CPUs of process 1, or none or two where there is no mask.
    ("src/freqop/sampler.py",
     "len(os.sched_getaffinity(0))",
     "len(os.sched_getaffinity(1))",
     (CPUS,)),
    ("src/freqop/sampler.py",
     "        return len(os.sched_getaffinity(0))\n    return 1\n",
     "        return len(os.sched_getaffinity(0))\n    return 0\n",
     (CPUS,)),
    ("src/freqop/sampler.py",
     "        return len(os.sched_getaffinity(0))\n    return 1\n",
     "        return len(os.sched_getaffinity(0))\n    return 2\n",
     (CPUS,)),
    # run_trials counting outcome 1 when no j is given.
    ("src/freqop/sampler.py",
     "j: int = 0",
     "j: int = 1",
     ("tests/test_sampler.py::TestRunTrials::test_degenerate",)),
    # The spectrum window one count too wide at its low edge. Its extra term
    # floors to the same zero, so only the tightness test sees it.
    ("src/freqop/analytic.py",
     "    return m + 1 - down, m + up - 1\n",
     "    return max(m - down, 0), m + up - 1\n",
     ("tests/test_analytic.py::test_window_edges_are_tight",)),
    # The window's margin below the Chernoff limit: counts whose terms are
    # above the floor fall outside and read as zeros.
    ("src/freqop/analytic.py",
     "WINDOW_MARGIN = 5.0\n",
     "WINDOW_MARGIN = -5.0\n",
     (MPMATH, "tests/test_analytic.py::test_spectrum_against_mpmath[1000-1e-07]",
      "tests/test_golden.py::test_large_n_digest[spectrum_0.9999_n1e5]")),
    # noncollapse's peak read at the mode alone: at a two-mode tie, or where
    # the kernel's rounding puts the maximum at m + 1, the peak is missed.
    # The mpmath test sees it only at some of its random draws, so it is not
    # named here.
    ("src/freqop/analytic.py",
     "    max_w = max(_binom_terms(max(m - 1, 0), min(m + 1, n), n, p))\n",
     "    max_w = _binom_terms(m, m, n, p)[0]\n",
     (f"{PEAK_TABLE}[3-0.5]", f"{PEAK_TABLE}[99-0.5]", f"{PEAK_TABLE}[194-0.1282051282051282]")),
    # _bd0's series one term shorter or longer: the deviance moves by an
    # ulp at some counts, where the array form (nine terms) keeps its bits.
    ("src/freqop/analytic.py",
     "range(9, 0, -1)",
     "range(8, 0, -1)",
     (f"{FULL_TABLE}",)),
    ("src/freqop/analytic.py",
     "range(9, 0, -1)",
     "range(10, 0, -1)",
     (f"{FULL_TABLE}",)),
    # _bd0's series also at |x - mean| = 0.1 (x + mean) exactly, where the
    # direct form and the series differ in the last bit.
    ("src/freqop/analytic.py",
     "    if abs(d) >= 0.1 * (x + mean):\n",
     "    if abs(d) > 0.1 * (x + mean):\n",
     (f"{FULL_TABLE}",)),
    # spectrum's argmax read as the peak's place in the window, without the
    # window's first count: right only where the window starts at k = 0, as
    # it does for every spectrum small enough to keep as a golden file.
    ("src/freqop/cli.py",
     '"argmax": a + window.index(max_weight),',
     '"argmax": window.index(max_weight),',
     ("tests/test_cli.py::TestSampleAndSpectrum::test_spectrum_argmax_counts_from_k_0",
      "tests/test_golden.py::test_large_n_digest[spectrum_0.3712_n1e5]")),
    # A column cut without its span's end: the slice across it reads the
    # values' last cells and stands for zeros it does not hold, too few
    # rows in JSON and too few cells for the CSV template.
    ("src/freqop/cli.py",
     "{*range(0, size, CSV_CHUNK_ROWS), start, stop, size}",
     "{*range(0, size, CSV_CHUNK_ROWS), start, size}",
     ("tests/test_cli.py::TestCsvRows::test_slices_cut_on_the_grid_and_span_edges[inside]",
      f"{GOLDEN}[spectrum_tail_csv]",
      "tests/test_golden.py::test_large_n_digest[spectrum_0.3712_n1e5]")),
    # _zero_rows' blocks for the first grid cell too: its q of 0 writes the
    # rows 0..99 as 000,0..099,0.
    ("src/freqop/cli.py",
     "if 0 < c and c % CSV_CHUNK_ROWS == 0 and",
     "if 0 <= c and c % CSV_CHUNK_ROWS == 0 and",
     (ZERO_ROWS, f"{ZERO_ROWS}_on_every_slice")),
    # Blocks for a cell's length of rows from one past a grid line: they
    # start at the grid line, every row one off.
    ("src/freqop/cli.py",
     "c % CSV_CHUNK_ROWS == 0 and",
     "c % CSV_CHUNK_ROWS == 1 and",
     (ZERO_ROWS,)),
    # Blocks for a slice of at least one block from a grid line: the rows
    # of its last partial block are dropped.
    ("src/freqop/cli.py",
     "and d - c == CSV_CHUNK_ROWS:",
     "and d - c >= 100:",
     (ZERO_ROWS,)),
    # converge's sampled variance filled with the sampled mean.
    ("src/freqop/cli.py",
     '            row["sampled_variance"] = summary.sample_variance\n',
     '            row["sampled_variance"] = summary.mean_frequency\n',
     (f"{GOLDEN}[converge_sample]",)),
    # A tolerance breach exits 0, or 2 as if the request were refused.
    ("src/freqop/cli.py",
     "EXIT_TOLERANCE = 1\n",
     "EXIT_TOLERANCE = 0\n",
     (f"{VERIFY_TOL}[algebra_above]", f"{CROSS_TOL}[above]")),
    ("src/freqop/cli.py",
     "EXIT_TOLERANCE = 1\n",
     "EXIT_TOLERANCE = 2\n",
     (f"{VERIFY_TOL}[algebra_above]", f"{CROSS_TOL}[above]")),
    # Each tolerance a whole unit loose: nothing it guards can fail.
    ("src/freqop/cli.py",
     "CROSS_CHECK_TOL = 1e-11\n",
     "CROSS_CHECK_TOL = 1.00000000001\n",
     (f"{CROSS_TOL}[above]",)),
    ("src/freqop/cli.py",
     "    tol_algebra = 1e-13\n",
     "    tol_algebra = 1.0000000000001\n",
     (f"{VERIFY_TOL}[algebra_above]",)),
    ("src/freqop/cli.py",
     "    tol_routes = 1e-14\n",
     "    tol_routes = 1.00000000000001\n",
     (f"{VERIFY_TOL}[routes_above]",)),
    # Each tolerance exclusive: a deviation equal to it fails.
    ("src/freqop/cli.py",
     'c["max_deviation"] > tol_algebra',
     'c["max_deviation"] >= tol_algebra',
     (f"{VERIFY_TOL}[algebra_at_tol]",)),
    ("src/freqop/cli.py",
     '"construction_route_deviation", 0.0) > tol_routes',
     '"construction_route_deviation", 0.0) >= tol_routes',
     (f"{VERIFY_TOL}[routes_at_tol]",)),
    ("src/freqop/cli.py",
     "ok = deviation <= CROSS_CHECK_TOL",
     "ok = deviation < CROSS_CHECK_TOL",
     (f"{CROSS_TOL}[at_tol]",)),
    # A preset split at every colon: a value holding one is refused with
    # Python's unpacking message instead of one that names it.
    ("src/freqop/cli.py",
     'text.split(":", 1)',
     'text.split(":", 2)',
     ("tests/test_cli.py::TestParseState::test_preset_value_is_all_after_the_first_colon",)),
    # A sweep's template taken from its second row: a sweep of one N raises.
    ("src/freqop/cli.py",
     "rows[0].values()",
     "rows[1].values()",
     ("tests/test_cli.py::TestConverge::test_one_row_csv",)),
    # main without its BrokenPipeError clause: a closed stdout falls to the
    # OSError clause, an error line and exit 2 instead of a silent 141.
    ("src/freqop/cli.py",
     "    except BrokenPipeError:\n        # The reader closed stdout (`| head -1`): no error line.\n"
     "        return EXIT_BROKEN_PIPE\n",
     "",
     ("tests/test_cli.py::test_closed_stdout_pipe_exits_141_without_an_error_line[buffered]",
      "tests/test_cli.py::test_argparse_text_into_a_closed_pipe_returns_141[argv0]")),
    # run without its block of _hashlib: a sampling child's numpy.random
    # loads it through secrets and hmac, and maps OpenSSL's libcrypto.
    ("src/freqop/cli.py",
     '    sys.modules.setdefault("_hashlib", None)\n',
     "",
     ("tests/test_cli.py::test_array_commands_import_numpy[sample]",)),
    # Each guard's boundary one lower: the smallest value it should refuse
    # passes it, and a later layer refuses it with a message that does not
    # name the field (verify's max() of no checks, EnsembleSpec's N).
    ("src/freqop/guards.py",
     "    if d < 2 or n_max < 1:\n",
     "    if d < 2 or n_max < 0:\n",
     (f"{BOUNDARY}[verify-n-max-0]",)),
    ("src/freqop/guards.py",
     "any(n < 1 for n in ns)",
     "any(n < 0 for n in ns)",
     (f"{BOUNDARY}[noncollapse-n-0]",)),
]

# Mutants that change no output, with the same columns; their tests must pass.
EQUIVALENT = [
    # verify's tables in reverse, table j indicating outcome d - 1 - j: each
    # multiplicity row expects the same sizes, and verify adds counts / N
    # over the outcomes in reverse. Each string's sum may move, but
    # sum_to_identity reads only the largest and smallest, and the set of
    # sums is the same: the string with each digit i read as d - 1 - i has
    # the reversed counts.
    ("src/freqop/dense.py",
     "sliding_window_view(unit, d)[::-1]",
     "sliding_window_view(unit, d)",
     (f"{GOLDEN}[verify_d3_n7]", f"{GOLDEN}[verify_d16_n5]", f"{MULTIPLICITIES}[8-3]")),
    # A norm exactly NORM_TOL from 1 refused: no double is. |norm - 1| is
    # a multiple of 2**-53 (Sterbenz) or above 0.5, and fl(1e-12) is not.
    ("src/freqop/hilbert.py",
     "if abs(norm - 1.0) > NORM_TOL:",
     "if abs(norm - 1.0) >= NORM_TOL:",
     ("tests/test_hilbert.py::TestStateVectorWithoutNumpy::"
      "test_norm_check_matches_numpy_one_ulp_either_side",)),
    # Other chunk and block sizes, and the block path one size shorter: a
    # trial's words and counts do not depend on how they are cut.
    ("src/freqop/sampler.py",
     "_CHUNK = 2**15\n",
     "_CHUNK = 3**15\n",
     CUTS),
    ("src/freqop/sampler.py",
     "_CHUNK = 2**15\n",
     "_CHUNK = 2**14\n",
     CUTS),
    ("src/freqop/sampler.py",
     "_CHUNK = 2**15\n",
     "_CHUNK = 2**16\n",
     CUTS),
    ("src/freqop/sampler.py",
     "_BLOCK_N = 2**11\n",
     "_BLOCK_N = 1**11\n",
     BLOCK_EDGE),
    ("src/freqop/sampler.py",
     "_BLOCK_N = 2**11\n",
     "_BLOCK_N = 2**10\n",
     BLOCK_EDGE),
    ("src/freqop/sampler.py",
     "_BLOCK_N = 2**11\n",
     "_BLOCK_N = 2**12\n",
     BLOCK_EDGE),
    ("src/freqop/sampler.py",
     "if n <= _BLOCK_N:",
     "if n < _BLOCK_N:",
     BLOCK_EDGE),
    # Other edges that take the same words: any edge below 0 takes none,
    # and any at or above 2**53 (w >> 11 is below it) takes all.
    ("src/freqop/sampler.py",
     "np.minimum(cdf, 1.0)",
     "np.minimum(cdf, 2.0)",
     ("tests/test_routes.py::test_word_thresholds_match_float_draws",
      "tests/test_sampler.py::test_draw_above_rounded_cdf_is_last_outcome")),
    ("src/freqop/sampler.py",
     "t[cdf == 0.0] = -1\n",
     "t[cdf == 0.0] = -2\n",
     ("tests/test_routes.py::test_word_thresholds_match_float_draws",
      "tests/test_sampler.py::test_zero_draw_skips_zero_weight_outcomes")),
    ("src/freqop/sampler.py",
     "t[-1] = 2**53\n",
     "t[-1] = 2**54\n",
     ("tests/test_routes.py::test_word_thresholds_match_float_draws",
      "tests/test_sampler.py::test_draw_above_rounded_cdf_is_last_outcome")),
    # The re-keyed state's first key word set before each stream anyway,
    # and the setter reads four counter and four buffer words.
    ("src/freqop/sampler.py",
     "key = [0, 0]",
     "key = [-1, 0]",
     ("tests/test_sampler.py::test_rekeyed_state_is_fresh_philox_state",)),
    ("src/freqop/sampler.py",
     "key = [0, 0]",
     "key = [1, 0]",
     ("tests/test_sampler.py::test_rekeyed_state_is_fresh_philox_state",)),
    ("src/freqop/sampler.py",
     '"counter": [0] * 4',
     '"counter": [0] * 5',
     ("tests/test_sampler.py::test_rekeyed_state_is_fresh_philox_state",)),
    ("src/freqop/sampler.py",
     '"buffer": [0] * 4',
     '"buffer": [0] * 5',
     ("tests/test_sampler.py::test_rekeyed_state_is_fresh_philox_state",)),
    # One more worker bound, which zip with the Philoxes drops, and each
    # Philox built at key 1, which is re-keyed before it draws.
    ("src/freqop/sampler.py",
     "range(workers + 1)",
     "range(workers + 2)",
     ("tests/test_sampler.py::test_worker_count_leaves_frequencies_unchanged",)),
    ("src/freqop/sampler.py",
     "np.random.Philox(key=0) for _",
     "np.random.Philox(key=1) for _",
     (f"{TRIALS}[two_level-65536]",)),
    # The spectrum window at no margin above the floor's Chernoff limit:
    # every term outside it is then still at most e**0 times the floor by
    # the Chernoff bound, so the floor zeroes it anyway. The tightness test
    # reads the margin it checks from the module.
    ("src/freqop/analytic.py",
     "WINDOW_MARGIN = 5.0\n",
     "WINDOW_MARGIN = 0.0\n",
     ("tests/test_analytic.py::test_window_edges_are_tight",
      "tests/test_analytic.py::test_window_matches_full_table", MPMATH,
      "tests/test_analytic.py::test_spectrum_against_mpmath",
      "tests/test_golden.py::test_large_n_digest")),
    # The window at a margin of 4 or 6 instead of 5: the windows nest, and
    # every count outside the one at margin 0 (the row above) has a term
    # below the floor by the Chernoff bound, so any margin >= 0 writes the
    # same zeros. The tightness test reads the margin it checks.
    ("src/freqop/analytic.py",
     "WINDOW_MARGIN = 5.0\n",
     "WINDOW_MARGIN = 4.0\n",
     (TIGHT, FULL_TABLE, f"{GOLDEN}[spectrum_tail_csv]")),
    ("src/freqop/analytic.py",
     "WINDOW_MARGIN = 5.0\n",
     "WINDOW_MARGIN = 6.0\n",
     (TIGHT, FULL_TABLE, f"{GOLDEN}[spectrum_tail_csv]")),
    # The count 0's Chernoff rate one lower, or a rate equal to the limit
    # counted outside: the only count that can change sides is one whose
    # rate exceeds the limit (pmf(0) is exactly exp(-rate)) or equals it,
    # so its term is at most e**-5 times the floor and is written as 0.0
    # inside the window or out.
    ("src/freqop/analytic.py",
     "if k else 0.0",
     "if k else -1.0",
     (TIGHT, FULL_TABLE, f"{GOLDEN}[spectrum_tail_csv]")),
    ("src/freqop/analytic.py",
     "return rate > limit",
     "return rate >= limit",
     (TIGHT, FULL_TABLE, f"{GOLDEN}[spectrum_tail_csv]")),
    # The term of count 0 at p = 1, or of count N at p = 0, as -1.0: the
    # floor writes every term below it, a negative one too, as 0.0.
    ("src/freqop/analytic.py",
     "if p < 1.0 else 0.0]",
     "if p < 1.0 else -1.0]",
     (DEGENERATE, f"{GOLDEN}[spectrum_p1_csv]", f"{PEAK_TABLE}[7-1.0]")),
    ("src/freqop/analytic.py",
     "if p > 0.0 else 0.0)",
     "if p > 0.0 else -1.0)",
     (DEGENERATE, f"{GOLDEN}[spectrum_p0]", f"{PEAK_TABLE}[7-0.0]")),
    # A term equal to the floor written as 0.0: no term is. Every term is
    # libm's exp of some float, or 0.0, and exp, which is monotone, returns
    # exactly 1e-300 for no float within 3000 ulps of log(1e-300).
    ("src/freqop/analytic.py",
     "0.0 if t < WEIGHT_FLOOR else t",
     "0.0 if t <= WEIGHT_FLOOR else t",
     (FULL_TABLE, f"{GOLDEN}[spectrum_tail_csv]")),
    # noncollapse's peak read over m - 2 .. m + 1 or m - 1 .. m + 2, m the
    # mode: the pmf two counts from m is below its neighbour nearer m by a
    # relative 1/(N + 2) or more, far above the kernel's 1e-14 there, so
    # the added count never holds the largest term.
    ("src/freqop/analytic.py",
     "max(m - 1, 0)",
     "max(m - 2, 0)",
     (PEAK_TABLE, f"{PEAK_TABLE}_random", f"{GOLDEN}[noncollapse_p05]")),
    ("src/freqop/analytic.py",
     "min(m + 1, n)",
     "min(m + 2, n)",
     (PEAK_TABLE, f"{PEAK_TABLE}_random", f"{GOLDEN}[noncollapse_p05]")),
    # The mode taken as floor(Np) or floor((N + 2)p). With (N + 1)p = m + f,
    # these are m - 1 where f < p, or m + 1 where f >= q, and m elsewhere.
    # The window's walks start inside it either way. The peak's three
    # counts then leave out m + 1, whose pmf is the mode's times
    # 1 - (1 - f)/((m + 1)q), or m - 1, whose pmf is the mode's over
    # 1 + f/(mq): within the kernel's 1e-14 of the mode's only for m above
    # 10^13.
    ("src/freqop/analytic.py",
     "min(int((n + 1) * p), n)",
     "min(int((n + 0) * p), n)",
     (PEAK_TABLE, f"{PEAK_TABLE}_random", FULL_TABLE)),
    ("src/freqop/analytic.py",
     "min(int((n + 1) * p), n)",
     "min(int((n + 2) * p), n)",
     (PEAK_TABLE, f"{PEAK_TABLE}_random", FULL_TABLE)),
    # _zero_rows' blocks only from c > 1, or never (no remainder is -1): a
    # whole cell past the first starts at c >= 1000 either way, and a slice
    # that takes no blocks takes the "%d,0" template, whose text they repeat.
    ("src/freqop/cli.py",
     "if 0 < c and",
     "if 1 < c and",
     (ZERO_ROWS, f"{ZERO_ROWS}_on_every_slice", f"{GOLDEN}[spectrum_tail_csv]")),
    ("src/freqop/cli.py",
     "c % CSV_CHUNK_ROWS == 0 and",
     "c % CSV_CHUNK_ROWS == -1 and",
     (ZERO_ROWS, f"{ZERO_ROWS}_on_every_slice", f"{GOLDEN}[spectrum_tail_csv]")),
    # A sweep's template from its last row: every column holds one type in
    # every row (``_emit``), so the last row's types are the first's.
    ("src/freqop/cli.py",
     "rows[0].values()",
     "rows[-1].values()",
     (f"{GOLDEN}[converge_sample_csv]", f"{GOLDEN}[converge_csv]",
      "tests/test_cli.py::TestCsvRows::test_sweep_longer_than_a_chunk")),
    # A check without a route deviation (above the literal-route guard)
    # read as -1 instead of 0: below the tolerance either way.
    ("src/freqop/cli.py",
     '"construction_route_deviation", 0.0)',
     '"construction_route_deviation", -1.0)',
     (f"{GOLDEN}[verify_d2_n14]", f"{GOLDEN}[verify_d4096_n1]", VERIFY_TOL)),
]


def failed_ids(summary: str) -> set:
    """The node ids on the ``FAILED`` and ``ERROR`` lines of pytest's
    ``-rfE`` summary. A line is ``FAILED <node id>``, then `` - `` and the
    start of the message if the line has room for it; a parametrized id
    may hold spaces, so the id runs to that separator or the line's end."""
    return set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", summary, re.MULTILINE))


def _failed(root: Path, tests) -> set:
    """The named tests that fail (or error) when run in the copy at root;
    ``subprocess.TimeoutExpired`` if they run past ``CHILD_TIMEOUT_S``."""
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-p", "no:unraisableexception", "--assert=plain", *tests],
        cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode not in (0, 1):  # a usage error, or no test collected
        sys.exit(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return failed_ids(proc.stdout)


def _copy(root: Path) -> Path:
    """Copy the parts pytest reads from this checkout to root."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", root)
    return root


def _run_rows(root: Path, rows) -> dict:
    """For each (index, row) of rows in turn, mutate the copy at root, run
    the row's tests there and restore the source: the failed tests by index.
    Tests that time out are an error that names the row."""
    failed = {}
    for index, (path, old, new, tests) in rows:
        source = (root / path).read_text()
        (root / path).write_text(source.replace(old, new))
        try:
            failed[index] = _failed(root, tests)
        except subprocess.TimeoutExpired:
            sys.exit(f"{path}: {_change(old, new)}: tests timed out after {CHILD_TIMEOUT_S} s")
        finally:
            (root / path).write_text(source)
    return failed


def _change(old: str, new: str) -> str:
    """How a row's mutant reads in the report."""
    return repr(new.strip()) if new else f"deleted {old.strip().splitlines()[0]!r}"


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main() -> int:
    rows = [(row, True) for row in MUTANTS] + [(row, False) for row in EQUIVALENT]
    for (path, old, _, _), _ in rows:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            sys.exit(f"{path}: {count} matches for {old!r}")
    workers = min(2, _cpus())
    named = sorted({test for (*_, tests), _ in rows for test in tests})
    indexed = list(enumerate(row for row, _ in rows))
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(workers) as pool:
        copies = [_copy(Path(tmp) / str(w)) for w in range(workers)]
        shares = [named[w::workers] for w in range(workers)]
        broken = set().union(*pool.map(_failed, copies, shares))
        if broken:
            sys.exit(f"fail without a mutant: {sorted(broken)}")
        failed = {}
        for results in pool.map(_run_rows, copies, [indexed[w::workers] for w in range(workers)]):
            failed.update(results)
    bad = 0
    for index, ((path, old, new, tests), killed) in enumerate(rows):
        wrong = sorted(set(tests) - failed[index] if killed else failed[index])
        print(f"{'ok  ' if not wrong else 'BAD '}{path}: {_change(old, new)}")
        for test in wrong:
            print(f"     {'passed' if killed else 'failed'}: {test}")
        bad += bool(wrong)
    print(f"{len(rows) - bad} of {len(rows)} rows as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
