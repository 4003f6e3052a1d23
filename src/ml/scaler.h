// Feature standardization (zero mean, unit variance per dimension).
#pragma once

#include <iosfwd>

#include "ml/dataset.h"

namespace headtalk::ml {

class StandardScaler {
 public:
  /// Learns per-dimension mean and standard deviation. Dimensions with zero
  /// variance are passed through unscaled.
  void fit(const Dataset& data);

  [[nodiscard]] bool fitted() const noexcept { return !mean_.empty(); }
  /// The fitted feature dimension (0 before fit).
  [[nodiscard]] std::size_t dimension() const noexcept { return mean_.size(); }

  /// Standardizes one feature vector (must match the fitted dimension).
  [[nodiscard]] FeatureVector transform(const FeatureVector& x) const;

  /// Standardizes a whole dataset (labels preserved).
  [[nodiscard]] Dataset transform(const Dataset& data) const;

  /// fit + transform in one call.
  [[nodiscard]] Dataset fit_transform(const Dataset& data);

  /// Binary persistence (see ml/serialize.h). Throws SerializationError.
  void save(std::ostream& out) const;
  static StandardScaler load(std::istream& in);

 private:
  FeatureVector mean_;
  FeatureVector inv_std_;
};

}  // namespace headtalk::ml
