// Facing / non-facing classifier: feature standardization + one of the four
// model families the paper compares (§IV-A). SVM wins the comparison and is
// the default.
#pragma once

#include <memory>

#include "core/facing.h"
#include "ml/classifier.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "ml/tree.h"

namespace headtalk::core {

enum class ClassifierKind { kSvm, kRandomForest, kDecisionTree, kKnn };

[[nodiscard]] std::string_view classifier_kind_name(ClassifierKind kind);

struct OrientationClassifierConfig {
  ClassifierKind kind = ClassifierKind::kSvm;
  ml::SvmConfig svm{};
  /// When true, (C, gamma) are selected by cross-validated grid search on
  /// the training data (the paper's LIBSVM protocol, §IV-A). Costs extra
  /// training time; off by default.
  bool tune_svm = false;
  ml::ForestConfig forest{};
  ml::TreeConfig tree{.max_depth = 5};  // the paper's DT setting
  ml::KnnConfig knn{.k = 3};            // the paper's kNN setting
};

class OrientationClassifier {
 public:
  explicit OrientationClassifier(OrientationClassifierConfig config = {});

  /// Trains on orientation features labelled kLabelFacing / kLabelNonFacing.
  void train(const ml::Dataset& data);

  [[nodiscard]] bool trained() const noexcept { return model_ != nullptr; }
  /// The feature dimension the model scores (0 before training).
  [[nodiscard]] std::size_t input_dimension() const noexcept { return scaler_.dimension(); }

  /// Predicted label (kLabelFacing or kLabelNonFacing).
  [[nodiscard]] int predict(const ml::FeatureVector& features) const;
  [[nodiscard]] bool is_facing(const ml::FeatureVector& features) const {
    return predict(features) == kLabelFacing;
  }
  /// Continuous confidence toward facing (model-specific scale).
  [[nodiscard]] double score(const ml::FeatureVector& features) const;

  [[nodiscard]] const OrientationClassifierConfig& config() const noexcept {
    return config_;
  }

  /// Persists the trained classifier (kind tag + scaler + model); all four
  /// model families round-trip.
  void save(std::ostream& out) const;
  static OrientationClassifier load(std::istream& in);

 private:
  OrientationClassifierConfig config_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Classifier> model_;
};

}  // namespace headtalk::core
