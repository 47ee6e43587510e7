#include "alp/rd.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "util/bits.h"

namespace alp {
namespace {

/// Builds the most-frequent-left-parts dictionary for a candidate cut and
/// returns the estimated bits/value on the sample.
template <typename T>
double EvaluateCut(const typename AlpTraits<T>::Uint* sample_bits, unsigned n,
                   unsigned left_bits, RdParams<T>* params_out) {
  const unsigned right_bits = AlpTraits<T>::kValueBits - left_bits;

  std::unordered_map<uint16_t, unsigned> freq;
  freq.reserve(64);
  for (unsigned i = 0; i < n; ++i) {
    const uint16_t left = static_cast<uint16_t>(sample_bits[i] >> right_bits);
    ++freq[left];
  }

  std::vector<std::pair<uint16_t, unsigned>> ordered(freq.begin(), freq.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  // Smallest dictionary (1, 2, 4 or 8 entries) whose exception rate is at
  // most 10%; otherwise the full 8 entries (paper Section 3.4).
  unsigned best_size = kRdMaxDictSize;
  unsigned covered_at_best = 0;
  unsigned covered = 0;
  unsigned entry = 0;
  for (unsigned b = 0; b <= kRdMaxDictWidth; ++b) {
    const unsigned size = 1u << b;
    while (entry < size && entry < ordered.size()) covered += ordered[entry++].second;
    const double exc_rate = 1.0 - static_cast<double>(covered) / n;
    if (exc_rate <= kRdMaxExceptionRate || b == kRdMaxDictWidth) {
      best_size = size;
      covered_at_best = covered;
      break;
    }
  }

  RdParams<T> params;
  params.right_bits = static_cast<uint8_t>(right_bits);
  params.dict_size = static_cast<uint8_t>(std::min<size_t>(best_size, ordered.size()));
  params.dict_width = params.dict_size <= 1
                          ? 0
                          : static_cast<uint8_t>(BitWidth(uint32_t{params.dict_size} - 1));
  for (unsigned i = 0; i < params.dict_size; ++i) params.dict[i] = ordered[i].first;

  const double exc_rate = 1.0 - static_cast<double>(covered_at_best) / n;
  const double bits_per_value =
      right_bits + params.dict_width + exc_rate * (16.0 + 16.0);
  if (params_out != nullptr) *params_out = params;
  return bits_per_value;
}

}  // namespace

template <typename T>
RdParams<T> RdAnalyzeRowgroup(const T* data, size_t n, const SamplerConfig& config) {
  using Uint = typename AlpTraits<T>::Uint;

  // First-level sampling: m equidistant vectors, n values each.
  const size_t vectors_in_group = (n + kVectorSize - 1) / kVectorSize;
  const unsigned m = static_cast<unsigned>(
      std::min<size_t>(config.vectors_per_rowgroup, std::max<size_t>(vectors_in_group, 1)));
  std::vector<Uint> sample;
  sample.reserve(static_cast<size_t>(m) * config.values_per_vector);
  const size_t vector_stride = std::max<size_t>(vectors_in_group / m, 1);
  for (unsigned v = 0; v < m; ++v) {
    const size_t offset = v * vector_stride * kVectorSize;
    if (offset >= n) break;
    const size_t len = std::min<size_t>(kVectorSize, n - offset);
    const size_t stride = std::max<size_t>(len / config.values_per_vector, 1);
    for (size_t i = 0; i < len && sample.size() < sample.capacity(); i += stride) {
      sample.push_back(BitsOf(data[offset + i]));
    }
  }
  if (sample.empty()) sample.push_back(0);

  RdParams<T> best_params;
  double best_bits = 1e300;
  // Candidate cuts: left part between 1 and 16 bits (p >= 48 for doubles).
  for (unsigned left = 1; left <= kRdMaxLeftBits; ++left) {
    RdParams<T> params;
    const double bits = EvaluateCut<T>(sample.data(), static_cast<unsigned>(sample.size()),
                                       left, &params);
    if (bits < best_bits) {
      best_bits = bits;
      best_params = params;
    }
  }
  ALP_OBS_ONLY({
    static obs::Histogram& right_bits =
        obs::MetricRegistry::Global().GetHistogram(
            "rd.right_bits",
            {16, 20, 24, 28, 32, 48, 50, 52, 54, 56, 58, 60, 63}, "bits");
    static obs::Histogram& dict_size = obs::MetricRegistry::Global().GetHistogram(
        "rd.dict_size", {1, 2, 4, 8}, "entries");
    right_bits.Record(best_params.right_bits);
    dict_size.Record(best_params.dict_size);
  });
  return best_params;
}

template <typename T>
std::vector<uint8_t> RdCodeTable(const RdParams<T>& params) {
  const unsigned left_bits = params.left_bits();
  assert(left_bits >= 1 && left_bits <= kRdMaxLeftBits);
  std::vector<uint8_t> table(size_t{1} << left_bits, params.dict_size);
  // Highest index first, so the lowest index of a duplicate entry is the
  // one left standing. An entry too wide for the cut matches no left part.
  for (unsigned d = params.dict_size; d-- > 0;) {
    if (params.dict[d] < table.size()) table[params.dict[d]] = static_cast<uint8_t>(d);
  }
  return table;
}

template <typename T>
void RdEncodeVector(const T* in, unsigned n, const RdParams<T>& params,
                    const uint8_t* code_table, RdEncodedVector<T>* out) {
  using Uint = typename AlpTraits<T>::Uint;
  const unsigned p = params.right_bits;
  const uint8_t miss = params.dict_size;
  const Uint right_mask = static_cast<Uint>(
      p >= AlpTraits<T>::kValueBits ? ~Uint{0} : ((Uint{1} << p) - 1));

  unsigned exc_count = 0;
  for (unsigned i = 0; i < n; ++i) {
    const Uint bits = BitsOf(in[i]);
    const uint16_t left = static_cast<uint16_t>(bits >> p);
    out->right_parts[i] = bits & right_mask;

    uint16_t code = code_table[left];
    if (code == miss) {
      out->exceptions[exc_count] = left;
      out->exc_positions[exc_count] = static_cast<uint16_t>(i);
      ++exc_count;
      code = 0;  // Placeholder; patched at decode time.
    }
    out->left_codes[i] = code;
  }
  out->exc_count = static_cast<uint16_t>(exc_count);
  ALP_OBS_ONLY({
    static obs::Histogram& exceptions =
        obs::MetricRegistry::Global().GetHistogram(
            "rd.exceptions_per_vector",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, "exceptions");
    exceptions.Record(exc_count);
  });

  // Pad partial tails so full-block packing stays valid.
  for (unsigned i = n; i < kVectorSize; ++i) {
    out->left_codes[i] = 0;
    out->right_parts[i] = n > 0 ? out->right_parts[0] : Uint{0};
  }
}

template <typename T>
void RdEncodeVector(const T* in, unsigned n, const RdParams<T>& params,
                    RdEncodedVector<T>* out) {
  RdEncodeVector(in, n, params, RdCodeTable(params).data(), out);
}

template <typename T>
void RdDictShifted(const RdParams<T>& params, typename AlpTraits<T>::Uint* out) {
  using Uint = typename AlpTraits<T>::Uint;
  const unsigned p = params.right_bits;
  for (unsigned i = 0; i < kRdMaxDictSize; ++i) {
    out[i] = p < AlpTraits<T>::kValueBits
                 ? static_cast<Uint>(static_cast<Uint>(params.dict[i]) << p)
                 : Uint{0};
  }
}

template <typename T>
void RdPatchExceptions(T* out, const uint16_t* exceptions, const uint16_t* positions,
                       unsigned count, unsigned right_bits) {
  using Uint = typename AlpTraits<T>::Uint;
  const Uint right_mask = static_cast<Uint>(
      right_bits >= AlpTraits<T>::kValueBits ? ~Uint{0}
                                             : ((Uint{1} << right_bits) - 1));
  for (unsigned i = 0; i < count; ++i) {
    const unsigned pos = positions[i];
    const Uint right = BitsOf(out[pos]) & right_mask;
    out[pos] = std::bit_cast<T>(
        (static_cast<Uint>(exceptions[i]) << right_bits) | right);
  }
}

template <typename T>
void RdDecodeVector(const RdEncodedVector<T>& enc, const RdParams<T>& params, T* out) {
  using Uint = typename AlpTraits<T>::Uint;

  // Glue (dictionary load + shift + OR); exceptions overwrite their left
  // parts after. Column decode runs the fused kernel instead (RdDecodeFused).
  Uint dict_shifted[kRdMaxDictSize];
  RdDictShifted(params, dict_shifted);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<T>(dict_shifted[enc.left_codes[i]] | enc.right_parts[i]);
  }
  RdPatchExceptions(out, enc.exceptions, enc.exc_positions, enc.exc_count,
                    params.right_bits);
}

template <typename T>
double RdEstimateBitsPerValue(const T* sample, unsigned n, const RdParams<T>& params) {
  unsigned exceptions = 0;
  const unsigned p = params.right_bits;
  for (unsigned i = 0; i < n; ++i) {
    const uint16_t left = static_cast<uint16_t>(BitsOf(sample[i]) >> p);
    bool found = false;
    for (unsigned d = 0; d < params.dict_size; ++d) found |= params.dict[d] == left;
    exceptions += !found;
  }
  const double exc_rate = n == 0 ? 0.0 : static_cast<double>(exceptions) / n;
  return p + params.dict_width + exc_rate * 32.0;
}

template struct RdParams<double>;
template struct RdParams<float>;
template RdParams<double> RdAnalyzeRowgroup<double>(const double*, size_t,
                                                    const SamplerConfig&);
template RdParams<float> RdAnalyzeRowgroup<float>(const float*, size_t,
                                                  const SamplerConfig&);
template std::vector<uint8_t> RdCodeTable<double>(const RdParams<double>&);
template std::vector<uint8_t> RdCodeTable<float>(const RdParams<float>&);
template void RdEncodeVector<double>(const double*, unsigned, const RdParams<double>&,
                                     const uint8_t*, RdEncodedVector<double>*);
template void RdEncodeVector<float>(const float*, unsigned, const RdParams<float>&,
                                    const uint8_t*, RdEncodedVector<float>*);
template void RdEncodeVector<double>(const double*, unsigned, const RdParams<double>&,
                                     RdEncodedVector<double>*);
template void RdEncodeVector<float>(const float*, unsigned, const RdParams<float>&,
                                    RdEncodedVector<float>*);
template void RdDecodeVector<double>(const RdEncodedVector<double>&,
                                     const RdParams<double>&, double*);
template void RdDecodeVector<float>(const RdEncodedVector<float>&, const RdParams<float>&,
                                    float*);
template void RdDictShifted<double>(const RdParams<double>&, uint64_t*);
template void RdDictShifted<float>(const RdParams<float>&, uint32_t*);
template void RdPatchExceptions<double>(double*, const uint16_t*, const uint16_t*,
                                        unsigned, unsigned);
template void RdPatchExceptions<float>(float*, const uint16_t*, const uint16_t*,
                                       unsigned, unsigned);
template double RdEstimateBitsPerValue<double>(const double*, unsigned,
                                               const RdParams<double>&);
template double RdEstimateBitsPerValue<float>(const float*, unsigned,
                                              const RdParams<float>&);

}  // namespace alp
