#include "common/table.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace cloudburst {

AsciiTable::AsciiTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("AsciiTable needs at least one column");
}

void AsciiTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("AsciiTable row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

void AsciiTable::add_separator() { rows_.emplace_back(); }

std::string AsciiTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string AsciiTable::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string AsciiTable::render(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto rule = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      // Right-align cells that look numeric, left-align text.
      const bool numeric =
          !cells[c].empty() && (std::isdigit(static_cast<unsigned char>(cells[c][0])) ||
                                cells[c][0] == '-' || cells[c][0] == '+');
      const std::size_t pad = widths[c] - cells[c].size();
      s += ' ';
      if (numeric) s.append(pad, ' ');
      s += cells[c];
      if (!numeric) s.append(pad, ' ');
      s += " |";
    }
    s += "\n";
    return s;
  };

  std::string out;
  if (!title.empty()) out += title + "\n";
  out += rule();
  out += line(headers_);
  out += rule();
  for (const auto& row : rows_) {
    out += row.empty() ? rule() : line(row);
  }
  out += rule();
  return out;
}

}  // namespace cloudburst
