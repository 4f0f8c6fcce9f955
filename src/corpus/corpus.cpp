#include "corpus/corpus.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "fs/file_io.h"

namespace mrs {

ZipfSampler::ZipfSampler(int n, double s) {
  if (n < 1) n = 1;
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[static_cast<size_t>(k)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int ZipfSampler::Sample(MT19937_64& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return static_cast<int>(cdf_.size()) - 1;
  return static_cast<int>(it - cdf_.begin());
}

double ZipfSampler::ExpectedProbability(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(cdf_.size())) return 0.0;
  double lo = rank == 0 ? 0.0 : cdf_[static_cast<size_t>(rank - 1)];
  return cdf_[static_cast<size_t>(rank)] - lo;
}

std::string VocabularyWord(int rank) {
  static const char* kCommon[] = {"the", "of",  "and", "to",  "a",
                                  "in",  "is",  "it",  "you", "that",
                                  "he",  "was", "for", "on",  "are"};
  constexpr int kNumCommon = static_cast<int>(std::size(kCommon));
  if (rank < kNumCommon) return kCommon[rank];
  return "w" + std::to_string(rank);
}

Result<std::vector<std::string>> GenerateCorpus(const std::string& root,
                                                const CorpusSpec& spec) {
  return GenerateCorpusWithCounts(root, spec, nullptr, nullptr);
}

Result<std::vector<std::string>> GenerateCorpusWithCounts(
    const std::string& root, const CorpusSpec& spec,
    std::vector<uint64_t>* rank_counts, CorpusStats* stats) {
  MRS_RETURN_IF_ERROR(EnsureDir(root));
  ZipfSampler zipf(spec.vocabulary, spec.zipf_s);
  if (rank_counts != nullptr) {
    rank_counts->assign(static_cast<size_t>(spec.vocabulary), 0);
  }

  std::vector<std::string> files;
  files.reserve(static_cast<size_t>(spec.num_files));
  uint64_t total_words = 0;

  int files_per_dir = std::max(1, spec.files_per_dir);
  for (int f = 0; f < spec.num_files; ++f) {
    // Nested layout: etext<NN>/<MM>/book<f>.txt — two directory levels,
    // echoing the Gutenberg mirror tree.
    int leaf = f / files_per_dir;
    int shelf = leaf / 10;
    std::string dir = JoinPath(
        root, "etext" + std::to_string(shelf) + "/" + std::to_string(leaf));
    MRS_RETURN_IF_ERROR(EnsureDir(dir));
    std::string path = JoinPath(dir, "book" + std::to_string(f) + ".txt");

    // Independent deterministic stream per file: regeneration of any one
    // file yields identical content regardless of order.
    const uint64_t keys[] = {spec.seed, 0x636f7270ull /*"corp"*/,
                             static_cast<uint64_t>(f)};
    MT19937_64 rng{std::span<const uint64_t>(keys, 3)};

    int words = spec.words_per_file / 2 +
                static_cast<int>(rng.NextBounded(
                    static_cast<uint64_t>(std::max(1, spec.words_per_file))));
    std::string content;
    content.reserve(static_cast<size_t>(words) * 6);
    for (int w = 0; w < words; ++w) {
      int rank = zipf.Sample(rng);
      content += VocabularyWord(rank);
      if (rank_counts != nullptr) ++(*rank_counts)[static_cast<size_t>(rank)];
      ++total_words;
      content += ((w + 1) % spec.words_per_line == 0) ? '\n' : ' ';
    }
    if (!content.empty() && content.back() != '\n') content += '\n';
    // Not synced: a crash can leave this file short, and rerunning the
    // generator rewrites the same bytes.
    MRS_RETURN_IF_ERROR(WriteFile(path, content));
    files.push_back(std::move(path));
  }

  if (stats != nullptr) {
    stats->total_words = total_words;
    stats->distinct_words = 0;
    if (rank_counts != nullptr) {
      for (uint64_t c : *rank_counts) {
        if (c > 0) ++stats->distinct_words;
      }
    }
  }
  return files;
}

}  // namespace mrs
