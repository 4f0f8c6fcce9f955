// Generate the synthetic Gutenberg-like corpus (nested directories, Zipf
// word frequencies) used by the WordCount experiments.
//
//   build/examples/corpus_gen <out-dir> [num_files] [words_per_file] [seed]
//
// -h or --help prints the usage and exits 0.  A flag it does not know, or a
// count that is not a plain non-negative int, prints the usage and exits 2
// before anything is written.
#include <climits>
#include <cstdio>
#include <optional>
#include <string_view>

#include "common/strings.h"
#include "corpus/corpus.h"

namespace {

int Usage(std::FILE* out, int code) {
  std::fprintf(out,
               "usage: corpus_gen <out-dir> [num_files] [words_per_file] "
               "[seed]\n");
  return code;
}

std::optional<int> ParseCount(std::string_view arg) {
  std::optional<uint64_t> n = mrs::ParseUint64(arg);
  if (!n || *n > INT_MAX) return std::nullopt;
  return static_cast<int>(*n);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "-h" || arg == "--help") return Usage(stdout, 0);
  }
  if (argc < 2 || argc > 5) return Usage(stderr, 2);
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') return Usage(stderr, 2);
  }
  mrs::CorpusSpec spec;
  std::optional<int> num_files = spec.num_files;
  std::optional<int> words_per_file = spec.words_per_file;
  std::optional<uint64_t> seed = spec.seed;
  if (argc > 2) num_files = ParseCount(argv[2]);
  if (argc > 3) words_per_file = ParseCount(argv[3]);
  if (argc > 4) seed = mrs::ParseUint64(argv[4]);
  if (!num_files || !words_per_file || !seed) return Usage(stderr, 2);
  spec.num_files = *num_files;
  spec.words_per_file = *words_per_file;
  spec.seed = *seed;

  mrs::CorpusStats stats;
  std::vector<uint64_t> counts;
  auto files = mrs::GenerateCorpusWithCounts(argv[1], spec, &counts, &stats);
  if (!files.ok()) {
    std::fprintf(stderr, "error: %s\n", files.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu files under %s: %llu words, %llu distinct\n",
              files->size(), argv[1],
              static_cast<unsigned long long>(stats.total_words),
              static_cast<unsigned long long>(stats.distinct_words));
  return 0;
}
