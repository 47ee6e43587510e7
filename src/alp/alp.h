#ifndef ALP_ALP_ALP_H_
#define ALP_ALP_ALP_H_

/// \file alp.h
/// Umbrella header for the ALP library. Most applications only need:
///
///   #include "alp/alp.h"
///
///   std::vector<uint8_t> compressed = alp::CompressColumn(data, n);
///   auto reader = alp::ColumnReader<double>::Open(compressed.data(),
///                                                 compressed.size());
///   if (!reader.ok()) return reader.status();  // checksums, structure
///   alp::Status s = reader->TryDecodeVector(42, out);  // random access
///   if (s.ok()) s = reader->TryDecodeAll(out);         // full decompression
///
/// Every buffer is untrusted: each format has one bounds-checked decoder,
/// and TryDecodeVector, TryDecodeAll, DecompressColumn and
/// CascadeDecompress return its alp::Status.
///
/// Lower-level building blocks (per-vector encoder, sampler, ALP_rd,
/// cascades) are exposed through the individual headers re-exported here.

#include "alp/cascade.h"
#include "alp/column.h"
#include "alp/constants.h"
#include "alp/encoder.h"
#include "alp/kernel_dispatch.h"
#include "alp/rd.h"
#include "alp/sampler.h"

#endif  // ALP_ALP_ALP_H_
