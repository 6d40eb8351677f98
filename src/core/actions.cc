#include "src/core/actions.h"

#include <climits>

#include "src/http/form.h"
#include "src/util/strings.h"

namespace rcb {

std::string_view ActionTypeName(ActionType type) {
  switch (type) {
    case ActionType::kClick:
      return "click";
    case ActionType::kFormFill:
      return "fill";
    case ActionType::kFormSubmit:
      return "submit";
    case ActionType::kMouseMove:
      return "mouse";
    case ActionType::kNavigate:
      return "navigate";
    case ActionType::kPresence:
      return "presence";
  }
  return "click";
}

StatusOr<ActionType> ParseActionType(std::string_view name) {
  if (name == "click") {
    return ActionType::kClick;
  }
  if (name == "fill") {
    return ActionType::kFormFill;
  }
  if (name == "submit") {
    return ActionType::kFormSubmit;
  }
  if (name == "mouse") {
    return ActionType::kMouseMove;
  }
  if (name == "navigate") {
    return ActionType::kNavigate;
  }
  if (name == "presence") {
    return ActionType::kPresence;
  }
  return InvalidArgumentError("unknown action type: " + std::string(name));
}

std::string EncodeActions(const std::vector<UserAction>& actions) {
  std::vector<std::string> lines;
  lines.reserve(actions.size());
  for (const UserAction& action : actions) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("type", std::string(ActionTypeName(action.type)));
    if (action.target >= 0) {
      fields.emplace_back("target", StrFormat("%d", action.target));
    }
    if (action.type == ActionType::kMouseMove) {
      fields.emplace_back("x", StrFormat("%d", action.x));
      fields.emplace_back("y", StrFormat("%d", action.y));
    }
    if (!action.data.empty()) {
      fields.emplace_back("data", action.data);
    }
    if (!action.origin.empty()) {
      fields.emplace_back("origin", action.origin);
    }
    for (const auto& [name, value] : action.fields) {
      fields.emplace_back("f." + name, value);
    }
    lines.push_back(EncodeFormUrlEncoded(fields));
  }
  return StrJoin(lines, "\n");
}

StatusOr<std::vector<UserAction>> DecodeActions(std::string_view encoded) {
  std::vector<UserAction> actions;
  if (StripWhitespace(encoded).empty()) {
    return actions;
  }
  for (const auto& line : StrSplit(encoded, '\n')) {
    if (line.empty()) {
      continue;
    }
    UserAction action;
    bool have_type = false;
    for (const auto& [name, value] : ParseFormUrlEncodedOrdered(line)) {
      if (name == "type") {
        RCB_ASSIGN_OR_RETURN(action.type, ParseActionType(value));
        have_type = true;
      } else if (name == "target") {
        uint64_t target = 0;
        if (!ParseUint64(value, &target) || target > INT_MAX) {
          return InvalidArgumentError("bad action target: " + value);
        }
        action.target = static_cast<int>(target);
      } else if (name == "x" || name == "y") {
        if (!ParseInt(value, name == "x" ? &action.x : &action.y)) {
          return InvalidArgumentError("bad action " + name + ": " + value);
        }
      } else if (name == "data") {
        action.data = value;
      } else if (name == "origin") {
        action.origin = value;
      } else if (StartsWith(name, "f.")) {
        action.fields.emplace_back(name.substr(2), value);
      }
    }
    if (!have_type) {
      return InvalidArgumentError("action line missing type: " + line);
    }
    actions.push_back(std::move(action));
  }
  return actions;
}

}  // namespace rcb
