#pragma once

// The service layer's name for the package's JSON module (qdd/common/Json.hpp).

#include "qdd/common/Json.hpp"

namespace qdd::service { namespace json = qdd::json; }
