#!/usr/bin/env python3
"""Self-test for repo_lint.py.

Builds throwaway mini source trees, seeds violations of each rule, and
asserts the linter (a) flags them with the right rule tag and exit code
1, (b) passes the corresponding clean variants with exit code 0, and
(c) rejects malformed config with exit code 2. This runs as a ctest
suite so the lint gate can never silently become a no-op: if a rule
stops firing, this test fails before the rule's absence can hide a real
regression.
"""

import io
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import repo_lint  # noqa: E402


CLEAN_CORE = """\
#include "core/bounds.h"
#include "trajectory/point.h"

namespace bqs {
double Accounted(double y, double x) {
  ops::CountAtan2();
  return std::atan2(y, x);
}
}  // namespace bqs
"""

CLEAN_SERVICE = """\
#include "service/spsc_ring.h"
#include "eval/runner.h"

namespace bqs {
void Pump() {}
}  // namespace bqs
"""


class LintHarness(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="bqs_lint_selftest_")
        self.addCleanup(shutil.rmtree, self.root)
        self.allowlist = self._config("allow.txt", "")
        self.budget = self._config(
            "budget.txt", "src/service/* std::mutex 0\n")

    def _config(self, name, content):
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def write(self, relpath, content):
        full = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(content)

    def lint(self):
        out = io.StringIO()
        code = repo_lint.run(self.root, self.allowlist, self.budget, out=out)
        return code, out.getvalue()

    # -- baseline ----------------------------------------------------------

    def test_clean_tree_passes(self):
        self.write("src/core/bounds.cc", CLEAN_CORE)
        self.write("src/service/fleet.cc", CLEAN_SERVICE)
        code, out = self.lint()
        self.assertEqual(code, 0, out)
        self.assertIn("clean", out)

    def test_empty_tree_is_config_error(self):
        code, out = self.lint()
        self.assertEqual(code, 2, out)

    # -- hot-path-transcendental ------------------------------------------

    def test_unaccounted_transcendental_fails(self):
        self.write("src/core/bounds.cc",
                   "double f(double x) { return std::sqrt(x); }\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("hot-path-transcendental", out)
        self.assertIn("src/core/bounds.cc:1", out)

    def test_counted_transcendental_passes(self):
        self.write("src/core/bounds.cc",
                   "double f(double x) {\n"
                   "  ops::CountSqrt();\n"
                   "  return std::sqrt(x);\n"
                   "}\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_counter_outside_window_fails(self):
        filler = "  int a = 0;\n" * (repo_lint.OP_COUNTER_WINDOW + 1)
        self.write("src/core/bounds.cc",
                   "double f(double x) {\n"
                   "  ops::CountSqrt();\n" + filler +
                   "  return std::sqrt(x);\n"
                   "}\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)

    def test_allowlisted_transcendental_passes(self):
        self.write("src/core/bounds.cc",
                   "double f(double x) { return std::sqrt(x); }\n")
        self.allowlist = self._config(
            "allow2.txt", "src/core/bounds.cc std::sqrt\\(x\\)\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_allowlist_is_per_file(self):
        self.write("src/core/other.cc",
                   "double f(double x) { return std::sqrt(x); }\n")
        self.allowlist = self._config(
            "allow3.txt", "src/core/bounds.cc std::sqrt\\(x\\)\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)

    def test_comments_and_strings_ignored(self):
        self.write("src/core/bounds.cc",
                   "// std::sqrt(x) in a comment\n"
                   "/* std::atan2(y, x) in a block */\n"
                   'const char* s = "std::sin(x)";\n')
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_cold_layer_not_scanned(self):
        self.write("src/core/ok.cc", "int x = 0;\n")
        self.write("src/geo/geodesy.cc",
                   "double f(double x) { return std::sqrt(x); }\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- service-alloc-budget ---------------------------------------------

    def test_service_mutex_fails_at_zero_budget(self):
        self.write("src/service/fleet.cc",
                   "#include <mutex>\nstd::mutex mu;\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("service-alloc-budget", out)
        self.assertIn("std::mutex", out)

    def test_service_mutex_passes_with_raised_budget(self):
        self.write("src/service/fleet.cc",
                   "#include <mutex>\nstd::mutex mu;\n")
        self.budget = self._config(
            "budget2.txt", "src/service/* std::mutex 1\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_naked_new_fails(self):
        self.write("src/service/fleet.cc", "int* p = new int(3);\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("'new'", out)

    def test_new_substring_does_not_trip(self):
        self.write("src/service/fleet.cc",
                   "void NewWindow();\nint renewal = 0;\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_budget_only_applies_to_service(self):
        self.write("src/eval/runner.cc", "int* p = new int(3);\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- include-hygiene ---------------------------------------------------

    def test_layer_inversion_fails(self):
        self.write("src/geometry/vec.cc", '#include "core/bounds.h"\n')
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("include-hygiene", out)
        self.assertIn("'geometry' may not include layer 'core'", out)

    def test_downward_include_passes(self):
        self.write("src/service/fleet.cc", '#include "eval/runner.h"\n'
                                           '#include "common/status.h"\n')
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_service_may_include_storage(self):
        # The fleet engine owns a WAL sink; service -> storage is a real
        # link edge in CMake and must be a legal include direction.
        self.write("src/service/fleet.cc",
                   '#include "storage/keypoint_wal.h"\n')
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_sibling_include_fails(self):
        self.write("src/baselines/dp.cc", '#include "simulation/vehicle.h"\n')
        code, out = self.lint()
        self.assertEqual(code, 1, out)

    def test_system_includes_ignored(self):
        self.write("src/common/status.cc",
                   "#include <vector>\n#include <mutex>\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- fault-injection-containment ---------------------------------------

    def test_fault_injector_in_core_fails(self):
        self.write("src/core/bounds.cc",
                   "namespace bqs { class FaultInjector; }\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("fault-injection-containment", out)
        self.assertIn("src/core/bounds.cc:1", out)

    def test_fault_injector_include_outside_allowlist_fails(self):
        self.write("src/eval/runner.cc",
                   '#include "common/fault_injector.h"\n')
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("fault-injection-containment", out)

    def test_fault_site_token_fails(self):
        self.write("src/storage/writer.cc",
                   "int f(bqs::FaultSite s);\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("fault-injection-containment", out)

    def test_fault_injector_in_allowlisted_consumers_passes(self):
        self.write("src/service/fleet_engine.cc",
                   '#include "common/fault_injector.h"\n'
                   "namespace bqs { FaultInjector* fi = nullptr; }\n")
        self.write("src/storage/keypoint_wal.cc",
                   '#include "common/fault_injector.h"\n'
                   "namespace bqs { FaultInjector* wal_fi = nullptr; }\n")
        self.write("src/common/fault_injector.h",
                   "namespace bqs { class FaultInjector {}; }\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_fault_injector_in_compaction_pipeline_passes(self):
        # The compaction pipeline and its manifest I/O expose injection
        # options (crash points, ENOSPC, rename failures) and are pinned
        # in the allowlist alongside the WAL writer.
        self.write("src/storage/compaction.cc",
                   '#include "common/fault_injector.h"\n'
                   "namespace bqs { FaultInjector* comp_fi = nullptr; }\n")
        self.write("src/storage/manifest.cc",
                   '#include "common/fault_injector.h"\n'
                   "namespace bqs { bool Fire(FaultSite s); }\n")
        self.write("src/common/fault_injector.h",
                   "namespace bqs { class FaultInjector {}; }\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_fault_mention_in_comment_passes(self):
        self.write("src/core/bounds.cc",
                   "// see FaultInjector in common/fault_injector.h\n"
                   "int x = 0;\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- oracle-hook-containment -------------------------------------------

    def test_oracle_hook_in_service_fails(self):
        self.write("src/service/fleet_engine.cc",
                   "const internal::KernelOracle oracle{};\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("oracle-hook-containment", out)
        self.assertIn("src/service/fleet_engine.cc:1", out)

    def test_oracle_hook_in_engine_and_compressors_passes(self):
        self.write("src/core/segment_state.h",
                   "namespace bqs::internal { struct KernelOracle {}; }\n")
        self.write("src/core/bqs_compressor.h",
                   "BqsCompressor(const internal::KernelOracle& oracle);\n")
        self.write("src/core/fbqs_compressor.h",
                   "FbqsCompressor(const internal::KernelOracle& oracle);\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- file-io-containment -----------------------------------------------

    def test_ofstream_outside_storage_fails(self):
        self.write("src/core/bounds.cc",
                   "#include <fstream>\n"
                   'std::ofstream out("dump.txt");\n')
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("file-io-containment", out)
        self.assertIn("src/core/bounds.cc:2", out)

    def test_fopen_in_service_fails(self):
        self.write("src/service/fleet.cc",
                   'void Dump() { (void)fopen("x", "w"); }\n')
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("file-io-containment", out)

    def test_posix_write_outside_storage_fails(self):
        self.write("src/eval/runner.cc",
                   "void f(int fd) { ::write(fd, 0, 0); }\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("file-io-containment", out)

    def test_storage_layer_may_do_file_io(self):
        self.write("src/storage/keypoint_wal.cc",
                   "#include <filesystem>\n"
                   "void f(int fd) { fdatasync(fd); }\n"
                   'int g() { return ::open("wal-000001.log", 0); }\n')
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_compaction_files_may_do_file_io(self):
        # The compaction pipeline lives under src/storage/ and is covered
        # by the layer prefix, not by per-file pins: descriptors, fsync and
        # std::filesystem stay open to every storage file.
        self.write("src/storage/compaction.cc",
                   "#include <filesystem>\n"
                   "void Drop() { std::filesystem::remove(\"x\"); }\n")
        self.write("src/storage/manifest.cc",
                   "void Publish(int fd) { fsync(fd); }\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_file_handling_in_storage_outside_file_layer_fails(self):
        # Streams, directory descriptors and renames have one home inside
        # the storage layer; a second copy is what let the WAL, manifest
        # and compactor each grow their own rules.
        self.write("src/storage/manifest.cc",
                   "#include <cstdio>\n"
                   "int Publish() { return ::rename(\"a.tmp\", \"a\"); }\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("file-io-containment", out)
        self.assertIn("src/storage/manifest.cc:2", out)
        for line in ('std::ifstream in("wal-000001.log");\n',
                     "int d = ::open(dir, O_RDONLY | O_DIRECTORY);\n"):
            self.write("src/storage/manifest.cc", "int x = 0;\n")
            self.write("src/storage/keypoint_wal.cc", line)
            code, out = self.lint()
            self.assertEqual(code, 1, out)
            self.assertIn("src/storage/keypoint_wal.cc:1", out)

    def test_file_layer_may_stream_rename_and_open_dirs(self):
        self.write("src/storage/file_io.cc",
                   "#include <fstream>\n"
                   'std::ofstream out("MANIFEST.tmp");\n'
                   "int d = ::open(dir, O_RDONLY | O_DIRECTORY);\n"
                   'int r = ::rename("MANIFEST.tmp", "MANIFEST");\n')
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_allowlisted_io_boundaries_pass(self):
        self.write("src/trajectory/csv_io.cc",
                   "#include <fstream>\n"
                   'std::ofstream out("t.csv");\n')
        self.write("src/eval/table.cc",
                   "#include <fstream>\n"
                   'std::ofstream out("report.md");\n')
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_file_io_mention_in_comment_passes(self):
        self.write("src/core/bounds.cc",
                   "// persisted via std::ofstream in the storage layer\n"
                   "int x = 0;\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- intrinsics-containment --------------------------------------------

    def test_intrinsic_token_in_core_fails(self):
        self.write("src/core/bounds.cc",
                   "__m256d v = _mm256_set1_pd(0.0);\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("intrinsics-containment", out)
        self.assertIn("src/core/bounds.cc:1", out)

    def test_intrinsic_include_outside_allowlist_fails(self):
        self.write("src/geometry/vec.cc", "#include <immintrin.h>\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("intrinsics-containment", out)

    def test_sse_header_outside_allowlist_fails(self):
        self.write("src/common/simd.cc", "#include <emmintrin.h>\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("intrinsics-containment", out)

    def test_intrinsics_in_allowlisted_tier_pass(self):
        self.write("src/common/simd_avx2.cc",
                   "#include <immintrin.h>\n"
                   "__m256d v = _mm256_setzero_pd();\n")
        self.write("src/common/simd_sse2.cc",
                   "#include <emmintrin.h>\n"
                   "__m128d w = _mm_setzero_pd();\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_intrinsic_mention_in_comment_passes(self):
        self.write("src/core/bounds.cc",
                   "// the _mm256_max_pd reduction lives in simd_avx2.cc\n"
                   "int x = 0;\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- framing-containment -----------------------------------------------

    def test_crc_call_in_storage_fails(self):
        self.write("src/storage/compaction.cc",
                   "uint32_t c = crc32c::Value(p, 4);\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("framing-containment", out)
        self.assertIn("src/storage/compaction.cc:1", out)

    def test_fixed_width_helper_outside_codec_fails(self):
        self.write("src/storage/manifest.cc",
                   "const uint32_t n = codec::GetFixed32(p);\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("framing-containment", out)

    def test_private_put_u32_fails(self):
        self.write("src/service/fleet.cc", "PutU32(&out, len);\n")
        code, out = self.lint()
        self.assertEqual(code, 1, out)
        self.assertIn("framing-containment", out)

    def test_codec_and_checksum_may_frame(self):
        self.write("src/storage/codec.h",
                   "inline uint32_t GetFixed32(const uint8_t* p);\n"
                   "uint32_t c = crc32c::Value(p, 4);\n")
        self.write("src/common/crc32c.cc",
                   "uint32_t v = crc32c::Extend(0, p, 4);\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    def test_varints_and_comments_pass(self):
        self.write("src/storage/block_format.h",
                   "// framed by codec::AppendFrame (crc32c::Value inside)\n"
                   "varint::PutU64(&out, v);\n"
                   "varint::GetU64(&p, end, &v);\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- config parsing ----------------------------------------------------

    def test_malformed_allowlist_is_exit_2(self):
        self.write("src/core/ok.cc", "int x = 0;\n")
        self.allowlist = self._config("bad.txt", "only-one-field\n")
        code, out = self.lint()
        self.assertEqual(code, 2, out)
        self.assertIn("config error", out)

    def test_bad_allowlist_regex_is_exit_2(self):
        self.write("src/core/ok.cc", "int x = 0;\n")
        self.allowlist = self._config("bad2.txt", "src/core/ok.cc ([bad\n")
        code, out = self.lint()
        self.assertEqual(code, 2, out)

    def test_unknown_budget_token_is_exit_2(self):
        self.write("src/core/ok.cc", "int x = 0;\n")
        self.budget = self._config("bad3.txt", "src/service/* calloc 0\n")
        code, out = self.lint()
        self.assertEqual(code, 2, out)

    def test_comments_allowed_in_config(self):
        self.write("src/core/ok.cc", "int x = 0;\n")
        self.allowlist = self._config(
            "ok.txt", "# a comment\n\nsrc/core/ok.cc whatever\n")
        code, out = self.lint()
        self.assertEqual(code, 0, out)

    # -- the real repo -----------------------------------------------------

    def test_real_repo_is_clean_with_committed_config(self):
        here = os.path.dirname(os.path.abspath(__file__))
        repo_root = os.path.dirname(os.path.dirname(here))
        out = io.StringIO()
        code = repo_lint.run(
            repo_root,
            os.path.join(here, "transcendental_allowlist.txt"),
            os.path.join(here, "service_alloc_budget.txt"),
            out=out)
        self.assertEqual(code, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main(verbosity=2)
