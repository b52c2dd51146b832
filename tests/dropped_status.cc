#include "src/common/status.h"
flowkv::Status MakeStatus();
void DropStatus() { MakeStatus(); }
