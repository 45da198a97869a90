#include "qmap/expr/attr.h"

#include <cstdlib>

#include "qmap/common/fnv.h"
#include "qmap/common/strings.h"

namespace qmap {

Attr Attr::Simple(std::string name) {
  Attr a;
  a.name = std::move(name);
  return a;
}

Attr Attr::Of(std::string view, std::string name) {
  Attr a;
  a.view = std::move(view);
  a.name = std::move(name);
  return a;
}

Attr Attr::OfInstance(std::string view, int instance, std::string name) {
  Attr a;
  a.view = std::move(view);
  a.instance = instance;
  a.name = std::move(name);
  return a;
}

Result<Attr> Attr::Parse(std::string_view text) {
  std::string_view s = StripWhitespace(text);
  if (s.empty()) return Status::ParseError("empty attribute reference");
  Attr a;
  size_t dot = s.find('.');
  if (dot == std::string_view::npos) {
    a.name = std::string(s);
    return a;
  }
  std::string_view head = s.substr(0, dot);
  size_t bracket = head.find('[');
  if (bracket != std::string_view::npos) {
    size_t close = head.find(']', bracket);
    if (close == std::string_view::npos) {
      return Status::ParseError("unbalanced '[' in attribute: '" + std::string(s) + "'");
    }
    a.view = std::string(head.substr(0, bracket));
    a.instance = std::atoi(std::string(head.substr(bracket + 1, close - bracket - 1)).c_str());
  } else {
    a.view = std::string(head);
  }
  a.name = std::string(s.substr(dot + 1));
  if (a.view.empty() || a.name.empty()) {
    return Status::ParseError("malformed attribute reference: '" + std::string(s) + "'");
  }
  return a;
}

std::string Attr::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Attr::AppendTo(std::string* out) const {
  if (!view.empty()) {
    out->append(view);
    if (instance != 0) {
      out->push_back('[');
      out->append(std::to_string(instance));
      out->push_back(']');
    }
    out->push_back('.');
  }
  out->append(name);
}

uint64_t Attr::CanonicalHash() const {
  Fnv64 h;
  if (!view.empty()) {
    h.Add(view);
    if (instance != 0) h.AddByte('[').AddDecimal(instance).AddByte(']');
    h.AddByte('.');
  }
  return h.Add(name).value();
}

}  // namespace qmap
