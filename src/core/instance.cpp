#include "core/instance.h"

#include <cmath>
#include <stdexcept>

#include "support/text.h"

namespace confcall::core {

Instance::Instance(std::size_t num_devices, std::size_t num_cells,
                   std::vector<double> row_major_probabilities)
    : devices_(num_devices),
      cells_(num_cells),
      probs_(std::move(row_major_probabilities)) {
  if (devices_ == 0) throw std::invalid_argument("Instance: zero devices");
  if (cells_ == 0) throw std::invalid_argument("Instance: zero cells");
  if (probs_.size() != devices_ * cells_) {
    throw std::invalid_argument("Instance: matrix size mismatch");
  }
  for (std::size_t i = 0; i < devices_; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < cells_; ++j) {
      const double p = probs_[i * cells_ + j];
      if (p < 0.0 || !std::isfinite(p)) {
        throw std::invalid_argument(
            "Instance: negative or non-finite probability");
      }
      row_sum += p;
    }
    if (std::abs(row_sum - 1.0) > kRowSumTolerance) {
      throw std::invalid_argument("Instance: row " + std::to_string(i) +
                                  " sums to " + std::to_string(row_sum) +
                                  ", expected 1");
    }
  }
  cols_.resize(probs_.size());
  for (std::size_t i = 0; i < devices_; ++i) {
    for (std::size_t j = 0; j < cells_; ++j) {
      cols_[j * devices_ + i] = probs_[i * cells_ + j];
    }
  }
}

Instance Instance::from_rows(const std::vector<prob::ProbabilityVector>& rows) {
  if (rows.empty()) throw std::invalid_argument("Instance: no rows");
  const std::size_t cells = rows.front().size();
  std::vector<double> flat;
  flat.reserve(rows.size() * cells);
  for (const auto& row : rows) {
    if (row.size() != cells) {
      throw std::invalid_argument("Instance: ragged rows");
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return Instance(rows.size(), cells, std::move(flat));
}

Instance Instance::uniform(std::size_t num_devices, std::size_t num_cells) {
  if (num_cells == 0) throw std::invalid_argument("Instance: zero cells");
  return Instance(num_devices, num_cells,
                  std::vector<double>(num_devices * num_cells,
                                      1.0 / static_cast<double>(num_cells)));
}

double Instance::cell_weight(CellId cell) const {
  double weight = 0.0;
  for (std::size_t i = 0; i < devices_; ++i) {
    weight += probs_[i * cells_ + cell];
  }
  return weight;
}

std::vector<double> Instance::cell_weights() const {
  std::vector<double> weights(cells_, 0.0);
  for (std::size_t i = 0; i < devices_; ++i) {
    for (std::size_t j = 0; j < cells_; ++j) {
      weights[j] += probs_[i * cells_ + j];
    }
  }
  return weights;
}

Instance Instance::select_devices(std::span<const DeviceId> devices) const {
  if (devices.empty()) {
    throw std::invalid_argument("select_devices: empty selection");
  }
  std::vector<double> flat;
  flat.reserve(devices.size() * cells_);
  for (const DeviceId device : devices) {
    if (device >= devices_) {
      throw std::invalid_argument("select_devices: device out of range");
    }
    const auto r = row(device);
    flat.insert(flat.end(), r.begin(), r.end());
  }
  return Instance(devices.size(), cells_, std::move(flat));
}

Instance Instance::restrict_cells(std::span<const CellId> cells) const {
  if (cells.empty()) {
    throw std::invalid_argument("restrict_cells: empty selection");
  }
  std::vector<double> flat;
  flat.reserve(devices_ * cells.size());
  for (std::size_t i = 0; i < devices_; ++i) {
    double mass = 0.0;
    for (const CellId cell : cells) {
      if (cell >= cells_) {
        throw std::invalid_argument("restrict_cells: cell out of range");
      }
      mass += prob(static_cast<DeviceId>(i), cell);
    }
    if (mass <= 0.0) {
      throw std::invalid_argument(
          "restrict_cells: device has zero mass on the kept cells");
    }
    for (const CellId cell : cells) {
      flat.push_back(prob(static_cast<DeviceId>(i), cell) / mass);
    }
  }
  return Instance(devices_, cells.size(), std::move(flat));
}

std::string Instance::to_string() const {
  std::string out = "Instance(m=";
  support::append_uint(out, devices_);
  out += ", c=";
  support::append_uint(out, cells_);
  out += ")\n";
  for (std::size_t i = 0; i < devices_; ++i) {
    out += "  device ";
    support::append_uint(out, i);
    out += ':';
    for (std::size_t j = 0; j < cells_; ++j) {
      out += ' ';
      support::append_double_g(out, probs_[i * cells_ + j]);
    }
    out += '\n';
  }
  return out;
}

RationalInstance::RationalInstance(
    std::size_t num_devices, std::size_t num_cells,
    std::vector<prob::Rational> row_major_probabilities)
    : devices_(num_devices),
      cells_(num_cells),
      probs_(std::move(row_major_probabilities)) {
  if (devices_ == 0) {
    throw std::invalid_argument("RationalInstance: zero devices");
  }
  if (cells_ == 0) throw std::invalid_argument("RationalInstance: zero cells");
  if (probs_.size() != devices_ * cells_) {
    throw std::invalid_argument("RationalInstance: matrix size mismatch");
  }
  const prob::Rational one(1);
  for (std::size_t i = 0; i < devices_; ++i) {
    prob::Rational row_sum;
    for (std::size_t j = 0; j < cells_; ++j) {
      const auto& p = probs_[i * cells_ + j];
      if (p.signum() < 0) {
        throw std::invalid_argument("RationalInstance: negative probability");
      }
      row_sum += p;
    }
    if (row_sum != one) {
      throw std::invalid_argument("RationalInstance: row " +
                                  std::to_string(i) + " sums to " +
                                  row_sum.to_string() + ", expected 1");
    }
  }
}

Instance RationalInstance::to_double_instance() const {
  std::vector<double> flat(probs_.size());
  for (std::size_t k = 0; k < probs_.size(); ++k) {
    flat[k] = probs_[k].to_double();
  }
  // Remove the tiny conversion drift so Instance's row-sum check passes
  // regardless of the rationals' denominators.
  for (std::size_t i = 0; i < devices_; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < cells_; ++j) row_sum += flat[i * cells_ + j];
    for (std::size_t j = 0; j < cells_; ++j) flat[i * cells_ + j] /= row_sum;
  }
  return Instance(devices_, cells_, std::move(flat));
}

}  // namespace confcall::core
