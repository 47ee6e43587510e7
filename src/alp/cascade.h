#ifndef ALP_ALP_CASCADE_H_
#define ALP_ALP_CASCADE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alp/sampler.h"
#include "util/status.h"

/// \file cascade.h
/// LWC+ALP cascading compression (paper Section 4.1, "When ALP struggles",
/// and the penultimate column of Table 4): before ALP-encoding, heavily
/// duplicated columns are Dictionary-encoded (the dictionary itself is then
/// ALP-compressed and the codes FFOR-packed) and run-dominated columns are
/// RLE-encoded (run values ALP-compressed, run lengths FFOR-packed). The
/// strategy is picked from a prefix sample.

namespace alp {

/// Which lightweight encoding was cascaded in front of ALP.
enum class CascadeStrategy : uint8_t {
  kPlain = 0,      ///< Straight ALP column.
  kDictionary = 1, ///< DICT(values) -> ALP(dictionary) + FFOR(codes).
  kRle = 2,        ///< RLE(values) -> ALP(run values) + FFOR(run lengths).
};

/// Cascade selection thresholds (tunable for experiments).
struct CascadeConfig {
  /// Prefer RLE when the sampled average run length reaches this.
  double min_avg_run_length = 4.0;
  /// Prefer Dictionary when the sampled duplicate fraction reaches this.
  double min_duplicate_fraction = 0.4;
  /// Give up on Dictionary beyond this many distinct values.
  size_t max_dictionary_size = size_t{1} << 20;
  /// Values inspected when choosing the strategy.
  size_t sample_size = 16 * 1024;
  SamplerConfig alp;
};

/// Compresses with the cascade; the returned buffer is self-describing.
std::vector<uint8_t> CascadeCompress(const double* data, size_t n,
                                     const CascadeConfig& config = {},
                                     CascadeStrategy* used = nullptr);

/// Decompresses a CascadeCompress buffer into \p out (value count is
/// embedded; use CascadeValueCount to size the output). The buffer is
/// untrusted: nested columns pass ColumnReader::Open (checksums and
/// structure), every FFOR width, extent, dictionary code and run length is
/// checked, and the run lengths must sum to the header's value count. On a
/// non-OK Status \p out is unspecified but nothing past it is written.
Status CascadeDecompress(const std::vector<uint8_t>& buffer, double* out);

/// Logical value count stored in a cascade buffer.
size_t CascadeValueCount(const std::vector<uint8_t>& buffer);

}  // namespace alp

#endif  // ALP_ALP_CASCADE_H_
