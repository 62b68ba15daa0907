// Fixture: deliberate layering violation — dedup depends on common only, so
// chunk boundaries reach it as offsets and sizes, never as chunking types.
#pragma once
#include "chunking/chunk.h"
