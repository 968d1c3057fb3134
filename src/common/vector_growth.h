#ifndef TEMPO_COMMON_VECTOR_GROWTH_H_
#define TEMPO_COMMON_VECTOR_GROWTH_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tempo {

/// Ensures `v` can hold `needed` elements, growing its capacity
/// geometrically. Append loops that grow a vector batch by batch use this
/// instead of v->reserve(v->size() + batch): libstdc++ allocates exactly
/// what reserve() asks for, so that idiom reallocates — and copies every
/// element so far — on every batch, which is quadratic over many batches.
template <typename T>
void GrowCapacity(std::vector<T>* v, size_t needed) {
  if (v->capacity() < needed) {
    v->reserve(std::max(2 * v->capacity(), needed));
  }
}

}  // namespace tempo

#endif  // TEMPO_COMMON_VECTOR_GROWTH_H_
